package sat

import (
	"reflect"
	"testing"
)

// hasPointers reports whether a value of type t holds a Go pointer the
// collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// TestSolverStateHoldsNoPointers pins the flat representation: every
// slice in the solver — the clause arena, the header table, the watch
// lists and their pool, the per-variable arrays, the trail and the undo
// log — has a pointer-free element type, so the collector never scans
// solver state and a copy of it is a memmove.
func TestSolverStateHoldsNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Solver{}), reflect.TypeOf(Checkpoint{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Type.Kind() == reflect.Slice && hasPointers(f.Type.Elem()) {
				t.Errorf("%s.%s: element type %v holds pointers", typ.Name(), f.Name, f.Type.Elem())
			}
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(header{}), reflect.TypeOf(watcher{}), reflect.TypeOf(watchList{})} {
		if hasPointers(typ) {
			t.Errorf("%v holds pointers", typ)
		}
	}
	if !hasPointers(reflect.TypeOf(struct{ p *int }{})) || !hasPointers(reflect.TypeOf([][]int{})) {
		t.Fatal("hasPointers misses a pointer")
	}
}
