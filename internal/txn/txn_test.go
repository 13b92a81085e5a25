package txn

import (
	"fmt"
	"reflect"
	"testing"
)

func TestAbortKindStrings(t *testing.T) {
	for k := AbortKind(0); int(k) < NAbortKinds; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no label", k)
		}
	}
	if AbortKind(99).String() != "unknown" {
		t.Error("out-of-range kind should be unknown")
	}
}

// TestStatsSubAdd gives every uint64 field and every AbortsByKind slot of
// Stats a distinct value, so a counter that Sub or Add forgets (or mixes
// up with another) shows as a wrong field, not as two zeros that agree.
func TestStatsSubAdd(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	n := uint64(0)
	for i := 0; i < av.NumField(); i++ {
		switch f := av.Field(i); f.Kind() {
		case reflect.Uint64:
			n++
			f.SetUint(1000 * n)
			bv.Field(i).SetUint(n)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				n++
				f.Index(j).SetUint(1000 * n)
				bv.Field(i).Index(j).SetUint(n)
			}
		default:
			t.Fatalf("Stats.%s: unexpected kind %v", av.Type().Field(i).Name, f.Kind())
		}
	}

	d := a.Sub(b)
	dv := reflect.ValueOf(d)
	n = 0
	check := func(name string, got uint64) {
		n++
		if want := 999 * n; got != want {
			t.Errorf("Sub: %s = %d, want %d", name, got, want)
		}
	}
	for i := 0; i < dv.NumField(); i++ {
		name := dv.Type().Field(i).Name
		if f := dv.Field(i); f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				check(fmt.Sprintf("%s[%v]", name, AbortKind(j)), f.Index(j).Uint())
			}
		} else {
			check(name, f.Uint())
		}
	}
	if s := d.Add(b); s != a {
		t.Errorf("Add(Sub) not identity:\n got %+v\nwant %+v", s, a)
	}
}
