package stack

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// leaves returns the addressable int64-kinded leaf fields of the struct
// v points to, recursing into nested structs in declaration order.
func leaves(v reflect.Value) []reflect.Value {
	var out []reflect.Value
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Struct {
			out = append(out, leaves(f)...)
			continue
		}
		out = append(out, f)
	}
	return out
}

// checkCounterArithmetic sets every field of two values of T (nested
// Pool/Batch/CplBatch included) to distinct values and checks that Sub
// and metrics.Add carry each field.
func checkCounterArithmetic[T any](t *testing.T, sub func(a, b T) T) {
	t.Helper()
	var a, b T
	la, lb := leaves(reflect.ValueOf(&a).Elem()), leaves(reflect.ValueOf(&b).Elem())
	if len(la) < 2 {
		t.Fatalf("%T: only %d counter fields", a, len(la))
	}
	for i := range la {
		la[i].SetInt(int64(1000 * (i + 1)))
		lb[i].SetInt(int64(i + 1))
	}
	d, s := sub(a, b), metrics.Add(a, b)
	ld, ls := leaves(reflect.ValueOf(&d).Elem()), leaves(reflect.ValueOf(&s).Elem())
	for i := range la {
		if got, want := ld[i].Int(), int64(999*(i+1)); got != want {
			t.Errorf("%T field %d: Sub = %d, want %d", a, i, got, want)
		}
		if got, want := ls[i].Int(), int64(1001*(i+1)); got != want {
			t.Errorf("%T field %d: Add = %d, want %d", a, i, got, want)
		}
	}
}

func TestStatsSubAddCarryEveryField(t *testing.T) {
	checkCounterArithmetic(t, ClusterStats.Sub)
	checkCounterArithmetic(t, TargetStats.Sub)
	checkCounterArithmetic(t, RCacheStats.Sub)
}
