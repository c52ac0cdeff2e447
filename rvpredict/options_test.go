package rvpredict_test

import (
	"errors"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/tracev2"
	"repro/rvpredict"
)

// TestValidateRejectsEachBadCombination: every undefined Options
// combination is rejected with an *OptionsError naming the offending
// field, both from Validate directly and from Run (which must refuse to
// start detection).
func TestValidateRejectsEachBadCombination(t *testing.T) {
	cases := []struct {
		name  string
		opt   rvpredict.Options
		field string
	}{
		{"window size below -1", rvpredict.Options{WindowSize: -2}, "WindowSize"},
		{"negative parallelism", rvpredict.Options{Parallelism: -1}, "Parallelism"},
		{"negative global budget", rvpredict.Options{GlobalBudget: -1}, "GlobalBudget"},
		{"resume without a journal", rvpredict.Options{Resume: true}, "Resume"},
		{"journal on a non-RV algorithm", rvpredict.Options{Journal: "j", Algorithm: rvpredict.HappensBefore}, "Journal"},
		{"negative group-commit interval", rvpredict.Options{Journal: "j", JournalGroupCommit: -1}, "JournalGroupCommit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(src string, err error) {
				var oe *rvpredict.OptionsError
				if !errors.As(err, &oe) {
					t.Fatalf("%s: error = %v, want *OptionsError", src, err)
				}
				if oe.Field != tc.field {
					t.Errorf("%s: Field = %q, want %q", src, oe.Field, tc.field)
				}
				if oe.Reason == "" {
					t.Errorf("%s: Reason is empty", src)
				}
			}
			check("Validate", tc.opt.Validate())
			_, err := rvpredict.Run(nil, fixtures.Figure1(), tc.opt)
			check("Run", err)
		})
	}
}

// TestRunRejectsMissingTraceSource: Run with neither a TraceReader nor a
// trace returns an *OptionsError on TraceReader instead of panicking,
// and so does a run given both.
func TestRunRejectsMissingTraceSource(t *testing.T) {
	check := func(name string, err error) {
		t.Helper()
		var oe *rvpredict.OptionsError
		if !errors.As(err, &oe) || oe.Field != "TraceReader" {
			t.Errorf("%s: error = %v, want *OptionsError on TraceReader", name, err)
		}
	}
	_, err := rvpredict.Run(nil, nil, rvpredict.Options{})
	check("no source", err)
	tr := fixtures.Figure1()
	_, err = rvpredict.Run(nil, tr, rvpredict.Options{TraceReader: tracev2.FromTrace(tr)})
	check("both sources", err)
}

// TestValidateAcceptsDefinedOptions: the documented sentinel values —
// zero defaults, -1 for a single whole-trace window, negative solve
// timeout for an unbounded solver — must pass validation; rejecting them
// would break existing callers.
func TestValidateAcceptsDefinedOptions(t *testing.T) {
	cases := []struct {
		name string
		opt  rvpredict.Options
	}{
		{"zero value", rvpredict.Options{}},
		{"whole-trace window", rvpredict.Options{WindowSize: -1}},
		{"unbounded solver", rvpredict.Options{SolveTimeout: -1}},
		{"journal with defaults", rvpredict.Options{Journal: "j"}},
		{"resume with journal", rvpredict.Options{Journal: "j", Resume: true}},
		{"full parallel matrix", rvpredict.Options{Parallelism: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opt.Validate(); err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
		})
	}
}
