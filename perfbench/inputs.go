package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/tracefile"
	"repro/internal/tracev2"
	"repro/internal/workloads"
)

// input is one generated trace file and the report a correct analysis of
// it gives.
type input struct {
	path   string
	events int
	races  int // planted RV races: the race count a correct report carries
}

// row returns the named Table 1 row.
func row(name string) workloads.Spec {
	for _, s := range workloads.Rows() {
		if s.Name == name {
			return s
		}
	}
	panic("perfbench: no Table 1 row " + name)
}

// rows returns the named Table 1 rows.
func rows(names ...string) []workloads.Spec {
	specs := make([]workloads.Spec, len(names))
	for i, n := range names {
		specs[i] = row(n)
	}
	return specs
}

// shrink divides a row's motif counts (rounding up, so no motif kind
// disappears) and its length by div. The motif mix, and so the kind of
// work per window, stays the row's; there is just less of it.
func shrink(s workloads.Spec, div int) workloads.Spec {
	m := &s.Motifs
	for _, n := range []*int{&m.Plain, &m.HBNotSaid, &m.CP, &m.CPNotSaid,
		&m.Said, &m.RVRegion, &m.RVIncomplete, &m.QCOnly} {
		*n = (*n + div - 1) / div
	}
	s.Events /= div
	return s
}

// generate writes one trace per spec under dir, reseeding every spec from
// the run's seed and its place in the list, so that one seed always yields
// the same files and every trace differs from the others.
func generate(dir string, seed int64, specs []workloads.Spec, chunked bool) ([]input, error) {
	ext := ".rvpt"
	if chunked {
		ext = ".rvc2"
	}
	ins := make([]input, len(specs))
	for i, s := range specs {
		s.Seed += 1_000_000*seed + 1000*int64(i)
		tr, want := workloads.Build(s)
		path := filepath.Join(dir, fmt.Sprintf("%02d-%s%s", i, s.Name, ext))
		if err := writeTrace(path, func(f *os.File) error {
			if chunked {
				return tracev2.WriteTrace(f, tr, tracev2.DefaultChunkSize)
			}
			return tracefile.Encode(f, tr)
		}); err != nil {
			return nil, err
		}
		ins[i] = input{path: path, events: tr.Len(), races: want.RV}
	}
	return ins, nil
}

func writeTrace(path string, encode func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
