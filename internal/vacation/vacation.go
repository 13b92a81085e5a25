// Package vacation re-creates the STAMP Vacation benchmark the paper uses
// in Figure 7: a travel reservation system whose tables live in
// transactional red-black trees.
//
// The manager keeps four relations — cars, flights, rooms (id →
// reservation record) and customers (id → reservation list) — and clients
// issue three transaction kinds:
//
//   - MakeReservation: query n random items across the three resource
//     tables, pick the highest-priced available item per resource, then
//     reserve them for a customer (inserted on demand);
//   - DeleteCustomer: compute a customer's bill, cancel all their
//     reservations and remove them;
//   - UpdateTables: add capacity to, or retire, n random resource records.
//
// Records are multi-word blocks allocated from the same transactional
// space, so every field access goes through the STM exactly as STAMP's
// field accesses go through TL2/TinySTM in the original evaluation.
package vacation

import (
	"fmt"

	"tinystm/internal/intset"
	"tinystm/internal/rng"
	"tinystm/internal/txn"
)

// ResType identifies a resource table.
type ResType int

// Resource kinds.
const (
	Car ResType = iota
	Flight
	Room
	numResTypes
)

// String names the resource.
func (r ResType) String() string {
	switch r {
	case Car:
		return "car"
	case Flight:
		return "flight"
	case Room:
		return "room"
	default:
		return fmt.Sprintf("ResType(%d)", int(r))
	}
}

// Reservation record layout (4 words), mirroring STAMP's reservation_t.
const (
	resUsed  = 0
	resFree  = 1
	resTotal = 2
	resPrice = 3
	resWords = 4
)

// Customer record layout (1 word): head of the reservation-info list.
const custWords = 1

// Reservation-info list node layout (4 words).
const (
	infoType  = 0
	infoID    = 1
	infoPrice = 2
	infoNext  = 3
	infoWords = 4
)

// Params configures the workload mix (STAMP's -n/-q/-u/-r flags).
type Params struct {
	// Relations is the number of records per table (-r).
	Relations int
	// QueryPct is the fraction of relations queries may touch (-q).
	QueryPct int
	// UserPct is the percentage of MakeReservation transactions (-u);
	// the remainder splits evenly between DeleteCustomer and
	// UpdateTables, as in STAMP's client.
	UserPct int
	// QueriesPerTx is the number of items each transaction examines (-n).
	QueriesPerTx int
}

// DefaultParams matches STAMP's "low contention" configuration scaled to
// this repository's harness.
func DefaultParams() Params {
	return Params{Relations: 1 << 12, QueryPct: 90, UserPct: 80, QueriesPerTx: 4}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.Relations == 0 {
		p.Relations = d.Relations
	}
	if p.QueryPct == 0 {
		p.QueryPct = d.QueryPct
	}
	if p.UserPct == 0 {
		p.UserPct = d.UserPct
	}
	if p.QueriesPerTx == 0 {
		p.QueriesPerTx = d.QueriesPerTx
	}
	return p
}

func (p Params) queryRange() uint64 {
	qr := uint64(p.Relations) * uint64(p.QueryPct) / 100
	if qr == 0 {
		qr = 1
	}
	return qr
}

// Manager holds the four relations. The handles are tree roots inside the
// transactional space; a Manager value can be shared across workers.
type Manager struct {
	cars      uint64
	flights   uint64
	rooms     uint64
	customers uint64
	params    Params
}

// table returns the tree handle for a resource type.
func (m *Manager) table(t ResType) uint64 {
	switch t {
	case Car:
		return m.cars
	case Flight:
		return m.flights
	case Room:
		return m.rooms
	default:
		panic("vacation: bad resource type")
	}
}

// Setup builds and populates a manager: each table receives Relations
// records with STAMP's capacity (100..500 in steps of 100) and price
// (50..550 in steps of 50) distributions.
func Setup[T txn.Tx](sys txn.System[T], p Params, seed uint64) *Manager {
	p = p.withDefaults()
	m := &Manager{params: p}
	tx := sys.NewTx()
	defer txn.Release(tx)
	r := rng.New(seed)
	sys.Atomic(tx, func(tx T) {
		m.cars = intset.NewTree(tx)
		m.flights = intset.NewTree(tx)
		m.rooms = intset.NewTree(tx)
		m.customers = intset.NewTree(tx)
	})
	for _, tbl := range []uint64{m.cars, m.flights, m.rooms} {
		tbl := tbl
		for id := 1; id <= p.Relations; id++ {
			id := uint64(id)
			total := uint64(r.Intn(5)+1) * 100
			price := uint64(r.Intn(5)*50 + 50)
			sys.Atomic(tx, func(tx T) {
				rec := tx.Alloc(resWords)
				tx.Store(rec+resUsed, 0)
				tx.Store(rec+resFree, total)
				tx.Store(rec+resTotal, total)
				tx.Store(rec+resPrice, price)
				intset.TreeInsert(tx, tbl, id, rec)
			})
		}
	}
	return m
}

// Params returns the workload parameters the manager was built with.
func (m *Manager) Params() Params { return m.params }

// MakeReservation runs one user transaction for a random customer drawn
// from rnd, inside tx (which must already be in an atomic block). It
// reports whether any reservation was made.
func MakeReservation[T txn.Tx](tx T, m *Manager, rnd *rng.Rand) bool {
	p := m.params
	qr := p.queryRange()
	customerID := rnd.Uint64n(qr) + 1

	var chosen [numResTypes]uint64 // record address per type (0 = none)
	var chosenID [numResTypes]uint64
	var maxPrice [numResTypes]uint64

	for i := 0; i < p.QueriesPerTx; i++ {
		t := ResType(rnd.Intn(int(numResTypes)))
		id := rnd.Uint64n(qr) + 1
		rec, ok := intset.TreeLookup(tx, m.table(t), id)
		if !ok {
			continue
		}
		price := tx.Load(rec + resPrice)
		if tx.Load(rec+resFree) > 0 && price > maxPrice[t] {
			chosen[t], chosenID[t], maxPrice[t] = rec, id, price
		}
	}

	found := false
	for t := ResType(0); t < numResTypes; t++ {
		if chosen[t] != 0 {
			found = true
			break
		}
	}
	if !found {
		return false
	}

	cust := customerLookupOrInsert(tx, m, customerID)
	for t := ResType(0); t < numResTypes; t++ {
		rec := chosen[t]
		if rec == 0 {
			continue
		}
		// Reserve: free--, used++ (availability was checked above inside
		// this same transaction, so it still holds).
		tx.Store(rec+resFree, tx.Load(rec+resFree)-1)
		tx.Store(rec+resUsed, tx.Load(rec+resUsed)+1)
		// Prepend to the customer's reservation list.
		info := tx.Alloc(infoWords)
		tx.Store(info+infoType, uint64(t))
		tx.Store(info+infoID, chosenID[t])
		tx.Store(info+infoPrice, maxPrice[t])
		tx.Store(info+infoNext, tx.Load(cust))
		tx.Store(cust, info)
	}
	return true
}

func customerLookupOrInsert[T txn.Tx](tx T, m *Manager, id uint64) uint64 {
	if rec, ok := intset.TreeLookup(tx, m.customers, id); ok {
		return rec
	}
	rec := tx.Alloc(custWords)
	tx.Store(rec, 0)
	intset.TreeInsert(tx, m.customers, id, rec)
	return rec
}

// DeleteCustomer cancels all reservations of a random customer and
// removes them, returning the billed total and whether the customer
// existed.
func DeleteCustomer[T txn.Tx](tx T, m *Manager, rnd *rng.Rand) (uint64, bool) {
	qr := m.params.queryRange()
	id := rnd.Uint64n(qr) + 1
	cust, ok := intset.TreeLookup(tx, m.customers, id)
	if !ok {
		return 0, false
	}
	var bill uint64
	node := tx.Load(cust)
	for node != 0 {
		bill += tx.Load(node + infoPrice)
		t := ResType(tx.Load(node + infoType))
		rid := tx.Load(node + infoID)
		if rec, ok := intset.TreeLookup(tx, m.table(t), rid); ok {
			// Cancel: used--, free++.
			tx.Store(rec+resUsed, tx.Load(rec+resUsed)-1)
			tx.Store(rec+resFree, tx.Load(rec+resFree)+1)
		}
		next := tx.Load(node + infoNext)
		tx.Free(node, infoWords)
		node = next
	}
	intset.TreeRemove(tx, m.customers, id)
	tx.Free(cust, custWords)
	return bill, true
}

// UpdateTables grows or retires n random records (STAMP's manager
// "update tables" administrative transaction).
func UpdateTables[T txn.Tx](tx T, m *Manager, rnd *rng.Rand) {
	p := m.params
	qr := p.queryRange()
	for i := 0; i < p.QueriesPerTx; i++ {
		t := ResType(rnd.Intn(int(numResTypes)))
		id := rnd.Uint64n(qr) + 1
		tbl := m.table(t)
		if rnd.Intn(2) == 0 {
			// Add capacity (or a new record).
			if rec, ok := intset.TreeLookup(tx, tbl, id); ok {
				tx.Store(rec+resFree, tx.Load(rec+resFree)+100)
				tx.Store(rec+resTotal, tx.Load(rec+resTotal)+100)
			} else {
				price := uint64(rnd.Intn(5)*50 + 50)
				rec := tx.Alloc(resWords)
				tx.Store(rec+resUsed, 0)
				tx.Store(rec+resFree, 100)
				tx.Store(rec+resTotal, 100)
				tx.Store(rec+resPrice, price)
				intset.TreeInsert(tx, tbl, id, rec)
			}
			continue
		}
		// Retire capacity; records whose free capacity cannot absorb the
		// cut are left alone (reservations must stay backed), and empty
		// unreserved records are deleted.
		rec, ok := intset.TreeLookup(tx, tbl, id)
		if !ok {
			continue
		}
		free := tx.Load(rec + resFree)
		total := tx.Load(rec + resTotal)
		if free < 100 {
			continue
		}
		if total == 100 && tx.Load(rec+resUsed) == 0 {
			intset.TreeRemove(tx, tbl, id)
			tx.Free(rec, resWords)
			continue
		}
		if total < 200 {
			continue
		}
		tx.Store(rec+resFree, free-100)
		tx.Store(rec+resTotal, total-100)
	}
}

// CheckConsistency verifies used+free == total and non-negative fields on
// every record, plus the red-black invariants of all four trees. Returns
// the first violation.
func CheckConsistency[T txn.Tx](tx T, m *Manager) error {
	for t := ResType(0); t < numResTypes; t++ {
		tbl := m.table(t)
		if err := intset.TreeValidate(tx, tbl); err != nil {
			return fmt.Errorf("vacation: %v table: %w", t, err)
		}
		for _, id := range intset.TreeSnapshot(tx, tbl) {
			rec, _ := intset.TreeLookup(tx, tbl, id)
			used := tx.Load(rec + resUsed)
			free := tx.Load(rec + resFree)
			total := tx.Load(rec + resTotal)
			if used+free != total {
				return fmt.Errorf("vacation: %v %d: used %d + free %d != total %d",
					t, id, used, free, total)
			}
		}
	}
	return intset.TreeValidate(tx, m.customers)
}

// TotalReserved sums used seats across all resource tables (test hook:
// it must equal the number of live customer reservation-info nodes).
func TotalReserved[T txn.Tx](tx T, m *Manager) uint64 {
	var used uint64
	for t := ResType(0); t < numResTypes; t++ {
		tbl := m.table(t)
		for _, id := range intset.TreeSnapshot(tx, tbl) {
			rec, _ := intset.TreeLookup(tx, tbl, id)
			used += tx.Load(rec + resUsed)
		}
	}
	return used
}

// CustomerInfoCount counts reservation-info nodes across all customers.
func CustomerInfoCount[T txn.Tx](tx T, m *Manager) uint64 {
	var n uint64
	for _, id := range intset.TreeSnapshot(tx, m.customers) {
		cust, _ := intset.TreeLookup(tx, m.customers, id)
		for node := tx.Load(cust); node != 0; node = tx.Load(node + infoNext) {
			n++
		}
	}
	return n
}
