package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	fdb "repro"
	"repro/internal/fplan"
	"repro/internal/relation"
	"repro/internal/wire"
)

// bandWidth is the number of items item_band_agg's $lo..$hi range covers.
const bandWidth = 10

// ----------------------------------------------------------------- point

// pointWL runs two parameterised prepared statements over the wire. One
// operation is one item_point followed by one item_band_agg, so that the
// latency distribution has one mode and its median does not flip between
// two statement costs.
type pointWL struct {
	wireBase

	point map[int64]*expected // by $item
	band  map[int64]*expected // by $lo

	draw func() (item, lo int64) // the traced caller's bindings
}

func (w *pointWL) setup(seed int64, scale int, _ string) error {
	w.ds = generate(seed, scale)
	db, err := w.ds.load()
	if err != nil {
		return err
	}
	err = w.serve(db, []string{"item_point", "item_band_agg"}, []wire.Spec{itemPointSpec(), itemBandAggSpec()})
	if err != nil {
		return err
	}
	for c := range w.clients {
		if _, _, err := w.reads(c, pointArgs(w.ds.itemByRank[0], itemID(0))); err != nil {
			return err
		}
	}
	return nil
}

// pointArgs binds $item of item_point and $lo, $hi of item_band_agg.
func pointArgs(item, lo int64) [][]wire.Arg {
	return [][]wire.Arg{
		{{Name: "item", Val: wire.Int(item)}},
		{{Name: "lo", Val: wire.Int(lo)}, {Name: "hi", Val: wire.Int(lo + bandWidth - 1)}},
	}
}

func (w *pointWL) expect() error {
	o := newOracle(w.ds, w.db.Dict())
	w.point = map[int64]*expected{}
	w.band = map[int64]*expected{}
	perItem := map[int64]map[relation.Value][]int64{}
	for k := 0; k < nItems; k++ {
		f, err := o.join(q1From, q1Eqs, intSel("Orders.item", fplan.Eq, itemID(k)))
		if err != nil {
			return err
		}
		perItem[itemID(k)] = f.countMax("Stock.location", "Orders.oid")
		p := f.project("Orders.oid", "Stock.location", "Disp.dispatcher")
		p.sortBy(sortKey{col: "Orders.oid"}, sortKey{col: "Stock.location"}, sortKey{col: "Disp.dispatcher"})
		p.slice(0, 64)
		w.point[itemID(k)] = expect(p.cols, p.rows(), true)
	}
	// A band's groups are the per-item groups of its items, folded.
	for k := 0; k+bandWidth <= nItems; k++ {
		groups := map[relation.Value][]int64{}
		for i := k; i < k+bandWidth; i++ {
			for loc, a := range perItem[itemID(i)] {
				g, seen := groups[loc]
				if !seen {
					g = []int64{0, a[1]}
				}
				g[0] += a[0]
				g[1] = max(g[1], a[1])
				groups[loc] = g
			}
		}
		cols := []string{"Stock.location", "count", "max(Orders.oid)"}
		w.band[itemID(k)] = expect(cols, o.aggRows(groups), false)
	}
	w.ds.tables = nil
	return nil
}

// bindings draws each operation's bindings: $item is Zipf(1.1) over the
// items in the seed's popularity order, $lo uniform over the bands.
func (w *pointWL) bindings(rng *rand.Rand) func() (item, lo int64) {
	zipf := rand.NewZipf(rng, 1.1, 1, nItems-1)
	return func() (int64, int64) {
		return w.ds.itemByRank[zipf.Uint64()], itemID(rng.Intn(nItems - bandWidth + 1))
	}
}

func (w *pointWL) newClient(c int, rng *rand.Rand) func() (time.Duration, error) {
	draw := w.bindings(rng)
	return func() (time.Duration, error) {
		item, lo := draw()
		return w.readOp(c, pointArgs(item, lo), w.verifier(item, lo))
	}
}

func (w *pointWL) verifier(item, lo int64) func([]*wire.Rows) error {
	return func(rows []*wire.Rows) error {
		if err := w.point[item].check(rows[0].Schema, rows[0].Rows); err != nil {
			return fmt.Errorf("item_point(%d): %w", item, err)
		}
		if err := w.band[lo].check(rows[1].Schema, rows[1].Rows); err != nil {
			return fmt.Errorf("item_band_agg(%d): %w", lo, err)
		}
		return nil
	}
}

// ------------------------------------------------------------------ scan

// scanWL serves a database opened from an FDBSNAP1 file: two parameter-free
// statements whose memoised encodings were adopted from the file, so an
// execution is enumeration, row encoding, the socket and row decoding. One
// operation is the full join followed by its three-column projection.
type scanWL struct {
	wireBase

	full, proj *expected

	saveTime, openTime time.Duration
	fileBytes          int64
}

func (w *scanWL) setup(seed int64, scale int, dir string) error {
	w.ds = generate(seed, scale)
	src, err := w.ds.load()
	if err != nil {
		return err
	}
	specs := []wire.Spec{q1Spec(), projJoinSpec()}
	// Execute both statements through the plan cache so the snapshot carries
	// their encodings.
	for i := range specs {
		clauses, err := specs[i].Clauses()
		if err != nil {
			return err
		}
		st, err := src.PrepareCached(clauses...)
		if err != nil {
			return err
		}
		if _, err := st.Exec(); err != nil {
			return err
		}
	}
	path := filepath.Join(dir, "scan.fdbsnap")
	t0 := time.Now()
	if err := src.SaveSnapshot(path); err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	t1 := time.Now()
	db, err := fdb.OpenSnapshotFile(path)
	if err != nil {
		return fmt.Errorf("open snapshot: %w", err)
	}
	w.saveTime, w.openTime = t1.Sub(t0), time.Since(t1)
	if fi, err := os.Stat(path); err == nil {
		w.fileBytes = fi.Size()
	}
	// The mapping outlives the name: the file can go now.
	if err := os.Remove(path); err != nil {
		return err
	}
	if err := w.serve(db, []string{"full_join", "proj_join"}, specs); err != nil {
		return err
	}
	for c := range w.clients {
		if _, _, err := w.reads(c, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *scanWL) expect() error {
	o := newOracle(w.ds, w.db.Dict())
	f, err := o.join(q1From, q1Eqs)
	if err != nil {
		return err
	}
	w.full = expect(f.cols, f.rows(), false)
	p := f.project("Orders.oid", "Stock.location", "Disp.dispatcher")
	w.proj = expect(p.cols, p.rows(), false)
	w.ds.tables = nil
	return nil
}

func (w *scanWL) newClient(c int, _ *rand.Rand) func() (time.Duration, error) {
	return func() (time.Duration, error) { return w.readOp(c, nil, w.verify) }
}

func (w *scanWL) verify(rows []*wire.Rows) error {
	if err := w.full.check(rows[0].Schema, rows[0].Rows); err != nil {
		return fmt.Errorf("full_join: %w", err)
	}
	if err := w.proj.check(rows[1].Schema, rows[1].Rows); err != nil {
		return fmt.Errorf("proj_join: %w", err)
	}
	return nil
}

func (w *scanWL) storeTimes() (save, open time.Duration, fileBytes int64) {
	return w.saveTime, w.openTime, w.fileBytes
}

// --------------------------------------------------------- write_refresh

// maxLive bounds the rows a write_refresh client keeps inserted at a time.
const maxLive = 64

// writeWL interleaves single-row writes with parameter-free dashboard reads:
// one operation is a cycle of one Insert into (or Delete from) Orders and the
// three dashboard statements, each of which must first fold the write into
// its memoised encoding. Clients write disjoint private oid ranges.
type writeWL struct {
	wireBase

	// Oracle results on the generated rows: the dashboards, the join's size
	// and what one order of each item adds to it.
	base      dashboards
	baseCount int64
	perOrder  map[int64]int64
	maxPer    int64

	live [][]order // per client, oldest first
	next []int64   // per client: next private oid

	oracle *oracle // kept for finish, which evaluates the final state
}

type order struct{ oid, item int64 }

// dashboards is what the three statements must return on one database state.
type dashboards struct{ countByDisp, topDispatch, totalCount *expected }

const (
	stCountByDisp = iota
	stTopDispatch
	stTotalCount
)

var dashboardNames = []string{"count_by_disp", "top_dispatch", "total_count"}

func (w *writeWL) setup(seed int64, scale int, _ string) error {
	w.ds = generate(seed, scale)
	db, err := w.ds.load()
	if err != nil {
		return err
	}
	err = w.serve(db, dashboardNames, []wire.Spec{countByDispSpec(), topDispatchSpec(), totalCountSpec()})
	if err != nil {
		return err
	}
	w.live = make([][]order, wireClients)
	w.next = make([]int64, wireClients)
	for c := range w.clients {
		w.next[c] = oidPrivate + int64(c)*1_000_000
		if _, _, err := w.reads(c, nil); err != nil {
			return err
		}
	}
	return nil
}

// dashboardsOf evaluates the three dashboards over a flat Q1 result.
func (o *oracle) dashboardsOf(f *flatRows) dashboards {
	var d dashboards
	d.countByDisp = expect([]string{"Disp.dispatcher", "count", "count_distinct(Orders.item)"},
		o.aggRows(f.countDistinct("Disp.dispatcher", "Orders.item")), false)
	top := f.project("Disp.dispatcher", "Orders.item")
	top.sortBy(sortKey{col: "Disp.dispatcher", desc: true}, sortKey{col: "Orders.item"})
	top.slice(8, 32)
	d.topDispatch = expect(top.cols, top.rows(), true)
	var total [][]string
	if n := len(f.tuples); n > 0 { // a global aggregate over nothing has no row
		total = [][]string{{fmt.Sprint(n)}}
	}
	d.totalCount = expect([]string{"count"}, total, false)
	return d
}

func (d dashboards) check(got []*wire.Rows) error {
	for i, e := range []*expected{d.countByDisp, d.topDispatch, d.totalCount} {
		if err := e.check(got[i].Schema, got[i].Rows); err != nil {
			return fmt.Errorf("dashboard %d: %w", i, err)
		}
	}
	return nil
}

func (w *writeWL) expect() error {
	w.oracle = newOracle(w.ds, w.db.Dict())
	f, err := w.oracle.join(q1From, q1Eqs)
	if err != nil {
		return err
	}
	w.base = w.oracle.dashboardsOf(f)
	w.baseCount = int64(len(f.tuples))
	// Every item has the same number of generated orders, so one more order
	// of an item adds that item's share of the join.
	perItem := int64(500 * w.ds.scale / nItems)
	w.perOrder = map[int64]int64{}
	item := f.col("Orders.item")
	for _, t := range f.tuples {
		w.perOrder[int64(t[item])]++
	}
	for k, n := range w.perOrder {
		w.perOrder[k] = n / perItem
		if w.perOrder[k] > w.maxPer {
			w.maxPer = w.perOrder[k]
		}
	}
	w.ds.tables = nil
	return nil
}

// nextWrite chooses client c's next write: insert while nothing is live,
// delete the oldest row at the cap, toss a coin in between.
func (w *writeWL) nextWrite(c int, rng *rand.Rand) (row order, insert bool) {
	live := w.live[c]
	if len(live) == 0 || (len(live) < maxLive && rng.Intn(2) == 0) {
		row = order{oid: w.next[c], item: w.ds.itemByRank[rng.Intn(nItems)]}
		w.next[c]++
		return row, true
	}
	return live[0], false
}

// applied records an acknowledged write.
func (w *writeWL) applied(c int, row order, insert bool) {
	if insert {
		w.live[c] = append(w.live[c], row)
	} else {
		w.live[c] = w.live[c][1:]
	}
}

// write sends one single-row Insert or Delete on connection c.
func (w *writeWL) write(c int, row order, insert bool) error {
	rows := [][]wire.Value{{wire.Int(row.oid), wire.Int(row.item)}}
	var err error
	if insert {
		_, err = w.clients[c].Insert("Orders", rows)
	} else {
		_, err = w.clients[c].Delete("Orders", rows)
	}
	if err != nil {
		return fmt.Errorf("write: %w", err)
	}
	return nil
}

func (w *writeWL) newClient(c int, rng *rand.Rand) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		row, insert := w.nextWrite(c, rng)
		t0 := time.Now()
		if err := w.write(c, row, insert); err != nil {
			return time.Since(t0), err
		}
		_, got, err := w.reads(c, nil)
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		w.applied(c, row, insert)
		return lat, w.checkLive(c, got)
	}
}

// checkLive verifies a cycle's reads while the other client keeps writing:
// this client's own rows must all be counted (it reads its writes), the
// other's may add up to maxLive orders more, and top_dispatch — whose
// (dispatcher, item) pairs every item's generated orders already cover —
// must not move at all.
func (w *writeWL) checkLive(c int, got []*wire.Rows) error {
	lo := w.baseCount
	for _, r := range w.live[c] {
		lo += w.perOrder[r.item]
	}
	hi := lo + maxLive*w.maxPer*int64(wireClients-1)
	within := func(name string, n int64) error {
		if n < lo || n > hi {
			return fmt.Errorf("%s counts %d join tuples, want %d..%d", name, n, lo, hi)
		}
		return nil
	}
	var sum int64
	for _, row := range got[stCountByDisp].Rows {
		n, err := strconv.ParseInt(row[len(row)-2], 10, 64)
		if err != nil {
			return fmt.Errorf("count_by_disp: row %v: %w", row, err)
		}
		sum += n
	}
	if err := within("count_by_disp", sum); err != nil {
		return err
	}
	if err := w.base.topDispatch.check(got[stTopDispatch].Schema, got[stTopDispatch].Rows); err != nil {
		return fmt.Errorf("top_dispatch: %w", err)
	}
	total := got[stTotalCount].Rows
	if len(total) != 1 || len(total[0]) != 1 {
		return fmt.Errorf("total_count: reply %v is not one count", total)
	}
	n, err := strconv.ParseInt(total[0][0], 10, 64)
	if err != nil {
		return fmt.Errorf("total_count: %w", err)
	}
	return within("total_count", n)
}

// finish, with the clients quiet, compares the dashboards with the oracle on
// the generated rows plus the surviving inserted ones, deletes those and
// checks that the generated state is back.
func (w *writeWL) finish() error {
	o := w.oracle
	w.oracle = nil
	var surviving [][]wire.Value
	for _, live := range w.live {
		for _, r := range live {
			o.rels["Orders"].Append(relation.Value(r.oid), relation.Value(r.item))
			surviving = append(surviving, []wire.Value{wire.Int(r.oid), wire.Int(r.item)})
		}
	}
	f, err := o.join(q1From, q1Eqs)
	if err != nil {
		return err
	}
	_, got, err := w.reads(0, nil)
	if err != nil {
		return err
	}
	if err := o.dashboardsOf(f).check(got); err != nil {
		return fmt.Errorf("after the last window, with %d inserted rows live: %w", len(surviving), err)
	}
	if len(surviving) > 0 {
		if _, err := w.clients[0].Delete("Orders", surviving); err != nil {
			return fmt.Errorf("delete surviving rows: %w", err)
		}
	}
	for c := range w.clients {
		_, got, err := w.reads(c, nil)
		if err != nil {
			return err
		}
		if err := w.base.check(got); err != nil {
			return fmt.Errorf("after deleting the inserted rows, connection %d: %w", c, err)
		}
	}
	for c := range w.live {
		w.live[c] = nil
	}
	return nil
}
