// Philosophers: predictive deadlock detection on the maximal causal model
// (the paper's Section 2.5 generalisation to concurrency properties beyond
// races). Three dining philosophers run once without deadlocking; the
// detector predicts from that innocent trace which fork orders can
// deadlock, and proves the gate-protected variant safe.
//
//	go run ./examples/philosophers
package main

import (
	_ "embed"
	"fmt"
	"log"

	"repro/minilang"
	"repro/rvpredict"
)

// unsafeTable: three philosophers; the first two pick up their forks in
// opposite orders (a real deadlock); the third follows a global order.
//
//go:embed unsafe.ml
var unsafeTable string

// waiterTable: the same table with a waiter. Every philosopher asks
// permission (a gate lock) before picking up forks, which prevents the
// inversion from ever deadlocking — a classic lockset-style false positive
// that the constraint-based detector proves safe.
//
//go:embed waiter.ml
var waiterTable string

func analyse(name, src string) {
	prog, err := minilang.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	// The sequential scheduler serialises the philosophers, so the
	// observed run always completes.
	tr, err := prog.Run(minilang.RunOptions{Scheduler: minilang.Sequential{}})
	if err != nil {
		log.Fatalf("%s: the observed run must complete: %v", name, err)
	}
	rep := rvpredict.DetectDeadlocks(tr, rvpredict.Options{Witness: true})
	fmt.Printf("%s: %d candidate inversion(s), %d real deadlock(s)\n",
		name, rep.Candidates, len(rep.Deadlocks))
	for _, d := range rep.Deadlocks {
		fmt.Println("  ", d.Description)
		fmt.Print("   witness prefix:")
		for _, idx := range d.Witness {
			fmt.Printf(" %d", idx)
		}
		fmt.Println()
	}
	fmt.Println()
}

func main() {
	fmt.Println("Predictive deadlock detection from non-deadlocking runs.")
	fmt.Println()
	analyse("opposite fork orders", unsafeTable)
	analyse("with a waiter (gate lock)", waiterTable)
}
