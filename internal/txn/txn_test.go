package txn

import "testing"

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

func TestStatsSubAdd(t *testing.T) {
	a := Stats{Commits: 10, Aborts: 4, Extensions: 2, RetryWaits: 3, RetryWaitNs: 900,
		LocksValidated: 100, LocksSkipped: 50, RollOvers: 1, Reconfigs: 2}
	a.AbortsByKind[AbortValidate] = 3
	a.AbortsByKind[AbortReadConflict] = 1
	b := Stats{Commits: 4, Aborts: 1, Extensions: 1, RetryWaits: 1, RetryWaitNs: 400,
		LocksValidated: 40, LocksSkipped: 20}
	b.AbortsByKind[AbortValidate] = 1

	d := a.Sub(b)
	if d.Commits != 6 || d.Aborts != 3 || d.Extensions != 1 ||
		d.RetryWaits != 2 || d.RetryWaitNs != 500 ||
		d.LocksValidated != 60 || d.LocksSkipped != 30 ||
		d.RollOvers != 1 || d.Reconfigs != 2 {
		t.Errorf("Sub wrong: %+v", d)
	}
	if d.AbortsByKind[AbortValidate] != 2 || d.AbortsByKind[AbortReadConflict] != 1 {
		t.Errorf("Sub kinds wrong: %+v", d.AbortsByKind)
	}

	s := d.Add(b)
	if s != a {
		t.Errorf("Add(Sub) not identity: %+v vs %+v", s, a)
	}
}
