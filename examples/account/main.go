// Account: the three predictive analyses — races, atomicity violations and
// deadlocks — on one bank-account program, all from a single innocent
// execution. Demonstrates the paper's Section 2.5 claim that the maximal
// causal model is a foundation for concurrency properties beyond races.
//
//	go run ./examples/account
package main

import (
	_ "embed"
	"fmt"
	"log"

	"repro/minilang"
	"repro/rvpredict"
)

// The account has a properly locked deposit path, a check-then-act
// withdraw that re-acquires the lock between the check and the act (an
// atomicity bug), an audit thread that reads the balance without any lock
// (a data race), and a transfer pair with inverted lock order (a latent
// deadlock).
//
//go:embed account.ml
var program string

func main() {
	prog, err := minilang.Compile(program)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := prog.Run(minilang.RunOptions{Scheduler: minilang.Sequential{}})
	if err != nil {
		log.Fatal(err)
	}
	st := tr.ComputeStats()
	fmt.Printf("one serialised run: %d events, %d threads — no bug manifested\n\n",
		st.Events, st.Threads)

	races := rvpredict.Detect(tr, rvpredict.Options{})
	fmt.Printf("races: %d\n", len(races.Races))
	for _, r := range races.Races {
		fmt.Println("  ", r.Description)
	}

	atom := rvpredict.DetectAtomicityViolations(tr, rvpredict.Options{})
	fmt.Printf("atomicity violations: %d (of %d candidates)\n", len(atom.Violations), atom.Candidates)
	for _, v := range atom.Violations {
		fmt.Println("  ", v.Description)
	}

	dl := rvpredict.DetectDeadlocks(tr, rvpredict.Options{})
	fmt.Printf("deadlocks: %d (of %d candidate inversions)\n", len(dl.Deadlocks), dl.Candidates)
	for _, d := range dl.Deadlocks {
		fmt.Println("  ", d.Description)
	}

	fmt.Println()
	fmt.Println("expected: the auditor's unlocked read races with the locked")
	fmt.Println("updates; the withdrawer's check-then-act lets a deposit slip")
	fmt.Println("between its read and write (atomicity violation, despite every")
	fmt.Println("access being individually locked); and the two transfer threads'")
	fmt.Println("inverted acct/ledger order can deadlock.")
}
