package mvcc

import (
	"testing"
)

// FuzzSidecar model-checks the Store against a naive per-address version
// list. The input's first byte picks the per-shard budget (1 to 12); the
// rest decodes to a sequence of commits, reads, snapshot registrations and
// departures, and Resets (each with every snapshot gone and the clock
// rewound, as at the STM's freeze barrier).
// A commit behaves as the STM's does: strictly increasing timestamps, and
// versioned only while a snapshot is registered, when it stamps births
// through Born and publishes pre-images carrying the value each supersedes
// and its stripe's version before the commit; with none registered it
// leaves the store untouched — no record, no retained version. Reads come
// from registered snapshots or at any timestamp no older than the
// epoch's newest unversioned commit (a snapshot registering now could
// hold it). Every read is held to five properties:
//   - a ReadHit returns the value the model says was current at the
//     snapshot;
//   - ReadLiveValid only when the address's last write is <= the snapshot;
//   - ReadTooOld only below the shard's horizon;
//   - a version published while any snapshot was registered, whose
//     retained interval covers the snapshot, is either found or trimmed
//     past (ReadTooOld), never a ReadMiss;
//   - a registered snapshot gets a ReadHit for every version superseded
//     after it registered whose retained interval covers it, unless the
//     sidecar reached its hard cap since (the only time trimming may drop
//     a version a registered snapshot needs).
//
// Reads of an address at a snapshot older than its latest birth are not
// judged: in the STM nothing reachable at that snapshot leads to it.
func FuzzSidecar(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0, 3, 1, 5, 0, 1, 2, 1, 0, 0, 1, 7, 1, 0, 1, 1})
	f.Add([]byte{1, 4, 0, 2, 1, 0, 0, 4, 1, 2, 3, 4, 0, 0, 4, 5, 6, 7, 0, 4, 8, 9, 10, 11, 1, 0})
	f.Add([]byte{0, 0, 0, 2, 0x81, 2, 2, 2, 0, 2, 1, 2, 1, 5, 0, 1, 3, 0, 1, 2, 1, 1})
	f.Add([]byte{11, 2, 0, 0, 0, 2, 1, 2, 3, 2, 1, 0, 2, 2, 3, 0, 3, 3, 0, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 600 {
			prog = prog[:600]
		}
		in := byteReader(prog)
		m := newSidecarModel(1 + int(in.next())%12)
		for in.more() {
			switch in.next() % 5 {
			case 0:
				m.commit(t, &in)
			case 1:
				m.read(t, &in)
			case 2:
				m.enter(int(in.next()) % modelSlots)
			case 3:
				m.leave(int(in.next()) % modelSlots)
			case 4:
				m.reset(in.next())
			}
		}
		for slot, r := range m.slots {
			if r.on {
				for a := uint64(0); a < modelWords; a++ {
					m.check(t, a, r.snap, slot)
				}
			}
		}
	})
}

const (
	modelWords   = 48
	modelStripes = 8
	modelSlots   = 3
)

type byteReader []byte

func (b *byteReader) more() bool { return len(*b) > 0 }

// next returns the next input byte, zero once the input is used up.
func (b *byteReader) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// modelVersion is one superseded value of an address in the current
// epoch: current over [start, end) in truth, retained by the sidecar (if
// at all) over [from, end).
type modelVersion struct {
	val, start, end, from uint64
	seq                   int  // publication sequence number
	retained              bool // published while a snapshot was registered
}

type modelSlot struct {
	on     bool
	snap   uint64
	seq    int  // sequence number at registration
	capHit bool // the sidecar reached its hard cap since registration
}

type sidecarModel struct {
	s       *Store
	ts      uint64 // newest commit timestamp of the epoch
	floor   uint64 // newest unversioned commit of the epoch (0: none)
	seq     int
	nextVal uint64

	live      [modelWords]uint64
	lastWrite [modelWords]uint64 // 0: unwritten this epoch, current since its start
	bornAt    [modelWords]uint64 // newest birth this epoch (0: none)
	recorded  [modelWords]uint64 // mirror of the store's written array, never reset
	hist      [modelWords][]modelVersion
	stripeVer [modelStripes]uint64
	slots     [modelSlots]modelSlot
}

func newSidecarModel(budget int) *sidecarModel {
	m := &sidecarModel{s: New(Config{Words: modelWords, Shards: 4, Budget: budget})}
	m.s.EnsureSlots(modelSlots)
	for a := range m.live {
		m.live[a] = 1000 + uint64(a)
	}
	return m
}

func stripeOf(a uint64) uint64 { return a % modelStripes }

// commit runs one commit: a timestamp gap, then up to four distinct
// addresses, each a birth when the top bit of its byte is set.
func (m *sidecarModel) commit(t *testing.T, in *byteReader) {
	ts := m.ts + 1 + uint64(in.next()%3)
	n := 1 + int(in.next()%4)
	var vs []Version
	var born [modelWords]bool
	var touched [modelWords]bool
	for i := 0; i < n; i++ {
		c := in.next()
		a := uint64(c&0x7f) % modelWords
		if touched[a] {
			continue
		}
		touched[a] = true
		st := stripeOf(a)
		born[a] = c&0x80 != 0
		vs = append(vs, Version{Stripe: st, Addr: a, Val: m.live[a], From: m.stripeVer[st]})
	}
	versioned := m.s.ActiveSnapshots() > 0
	retainedBefore := m.s.Retained()
	if versioned {
		var pre []Version
		for _, v := range vs {
			if born[v.Addr] {
				m.s.Born(ts, v.Addr, 1)
			} else {
				pre = append(pre, v)
			}
		}
		m.s.Publish(ts, pre)
	} else {
		m.floor = ts
	}
	m.seq++
	for _, v := range vs {
		a := v.Addr
		if born[a] {
			m.hist[a] = nil
			m.bornAt[a] = ts
		} else {
			from := v.From
			if w := m.recorded[a]; w < from {
				from = w
			}
			m.hist[a] = append(m.hist[a], modelVersion{
				val: m.live[a], start: m.lastWrite[a], end: ts, from: from,
				seq: m.seq, retained: versioned,
			})
		}
		m.nextVal++
		m.live[a] = m.nextVal
		m.lastWrite[a] = ts
		if versioned {
			m.recorded[a] = ts
		}
		m.stripeVer[v.Stripe] = ts
	}
	m.ts = ts
	for _, v := range vs {
		if w := m.s.Written(v.Addr); w != m.recorded[v.Addr] {
			t.Fatalf("commit at %d (versioned %v): address %d has written record %d, model %d",
				ts, versioned, v.Addr, w, m.recorded[v.Addr])
		}
	}
	if r := m.s.Retained(); !versioned && r != retainedBefore {
		t.Fatalf("unversioned commit at %d: retained %d versions, was %d", ts, r, retainedBefore)
	}
	if m.s.Retained() >= hardCapMult*m.s.Budget() {
		for i := range m.slots {
			m.slots[i].capHit = true
		}
	}
}

// read reads one address, at a registered snapshot when the selector
// byte names a registered slot, else at an arbitrary timestamp from the
// newest unversioned commit up to one past the newest commit.
func (m *sidecarModel) read(t *testing.T, in *byteReader) {
	a := uint64(in.next()) % modelWords
	sel := in.next()
	if slot := int(sel) % (modelSlots + 1); slot < modelSlots && m.slots[slot].on {
		m.check(t, a, m.slots[slot].snap, slot)
		return
	}
	m.check(t, a, m.floor+uint64(sel)%(m.ts+2-m.floor), -1)
}

func (m *sidecarModel) enter(slot int) {
	m.s.Enter(slot, m.ts)
	m.slots[slot] = modelSlot{on: true, snap: m.ts, seq: m.seq}
}

func (m *sidecarModel) leave(slot int) {
	m.s.Leave(slot)
	m.slots[slot] = modelSlot{}
}

// reset is the freeze barrier: every snapshot has left, the store is
// Reset, and the clock rewinds to a small value. Every live value is
// current since the new epoch's start.
func (m *sidecarModel) reset(c byte) {
	for i := range m.slots {
		m.leave(i)
	}
	m.s.Reset()
	m.ts = uint64(c % 4)
	m.floor = 0
	for a := range m.hist {
		m.hist[a] = nil
		m.lastWrite[a] = 0
		m.bornAt[a] = 0
	}
	m.stripeVer = [modelStripes]uint64{}
}

// check reads address a at snap and holds the answer to the model; slot
// is the registered snapshot reading, or -1.
func (m *sidecarModel) check(t *testing.T, a, snap uint64, slot int) {
	t.Helper()
	st := stripeOf(a)
	val, res := m.s.Read(st, a, snap)
	if snap < m.bornAt[a] {
		return
	}
	want := m.live[a]
	var cover *modelVersion
	if snap < m.lastWrite[a] {
		for i := range m.hist[a] {
			if v := &m.hist[a][i]; v.start <= snap && snap < v.end {
				cover = v
			}
		}
		if cover == nil {
			t.Fatalf("model: no version of %d covers %d", a, snap)
		}
		want = cover.val
	}
	switch res {
	case ReadHit:
		if val != want {
			t.Fatalf("Read(%d, snap %d) = hit %d, model says %d", a, snap, val, want)
		}
	case ReadLiveValid:
		if m.lastWrite[a] > snap {
			t.Fatalf("Read(%d, snap %d) = live-valid, but the address was written at %d", a, snap, m.lastWrite[a])
		}
	case ReadTooOld:
		if h := m.s.Horizon(st); snap >= h {
			t.Fatalf("Read(%d, snap %d) = too-old at horizon %d", a, snap, h)
		}
	}
	if cover == nil || !cover.retained || snap < cover.from {
		return
	}
	if res != ReadHit && res != ReadTooOld {
		t.Fatalf("Read(%d, snap %d) = %v: the retained version %+v is neither found nor trimmed past",
			a, snap, res, *cover)
	}
	if slot < 0 {
		return
	}
	r := m.slots[slot]
	if !r.capHit && cover.seq > r.seq && res != ReadHit {
		t.Fatalf("registered snapshot %d lost the version of %d it needs (%+v): Read = %v, horizon %d",
			snap, a, *cover, res, m.s.Horizon(st))
	}
}
