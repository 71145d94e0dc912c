package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	fdb "repro"
	"repro/internal/gen"
)

// coldOpen is Experiment 12: cold-open-to-first-query over the zero-copy
// snapshot format against the parse-and-rebuild baseline. The snapshot leg
// opens the file (memory-mapped where the platform allows) and answers the
// retailer join's first query by adopting the snapshot-carried encoding —
// O(header + pages touched) work. The baseline answers the same query from
// scratch: parse the three TSV relation files, dictionary-encode, snapshot,
// sort, and run the full morsel-parallel build. Both legs — and the live
// database the snapshot was cut from — must agree byte for byte on an
// ordered result sample and an aggregate table before timings are reported.
func coldOpen(cfg Config, scales []int) (Table, error) {
	t := Table{Header: []string{
		"Experiment 12: zero-copy snapshot cold open (mmap + enc adoption) vs TSV parse + full rebuild",
		"workload scale result_tuples file_kb save_ms cold_open_ms rebuild_ms speedup",
	}}
	dir, err := os.MkdirTemp("", "fdbench-exp12-")
	if err != nil {
		return t, err
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(cfg.Seed))
	scales = trim(cfg, scales)
	// Per scale: result_tuples file_kb save_ms cold_open_ms rebuild_ms
	m, err := mean(cfg.Runs, func() ([][]float64, error) {
		rows := make([][]float64, len(scales))
		for i, scale := range scales {
			row, err := coldOpenPoint(rng, scale, dir)
			if err != nil {
				return nil, err
			}
			rows[i] = row
		}
		return rows, nil
	})
	if err != nil {
		return t, err
	}
	for i, r := range m {
		t.add("retailer %d %d %.1f %.3f %.3f %.3f %.1f", scales[i], int64(r[0]), r[1], r[2], r[3], r[4], ratio(r[4], r[3]))
	}
	return t, nil
}

// coldOpenPoint runs one scale point, with its files under dir.
func coldOpenPoint(rng *rand.Rand, scale int, dir string) ([]float64, error) {
	db, join, err := openDB(gen.Retailer(rng, scale))
	if err != nil {
		return nil, err
	}

	// The parity probes: a deterministic ordered sample of the join and a
	// grouped aggregate — both rendered to text, compared byte for byte.
	sample := with(join,
		fdb.OrderBy(fdb.Desc("Orders.item"), fdb.Asc("Orders.oid"), fdb.Asc("Disp.dispatcher")),
		fdb.Limit(50))
	agg := with(join,
		fdb.GroupBy("Stock.location"), fdb.Agg(fdb.Count, ""), fdb.Agg(fdb.CountDistinct, "Orders.item"))

	// Warm the live database through the plan cache, so the snapshot carries
	// the join's encoding and the cold leg's first query adopts it. The
	// parity probes run only after the save — they memoise encodings of
	// their own, which must not ride along and inflate the file.
	live, err := db.Query(join...)
	if err != nil {
		return nil, err
	}
	tuples := live.Count()

	// Baseline input: the same relations as TSV files (what a rebuild parses).
	var tsvs []string
	for _, name := range db.Relations() {
		p := filepath.Join(dir, fmt.Sprintf("exp12_s%d_%s.tsv", scale, name))
		if err := db.SaveTSV(p, name); err != nil {
			return nil, err
		}
		tsvs = append(tsvs, p)
	}

	snap := filepath.Join(dir, fmt.Sprintf("exp12_s%d.fdb", scale))
	start := time.Now()
	if err := db.SaveSnapshot(snap); err != nil {
		return nil, err
	}
	saveMS := ms(start)
	fi, err := os.Stat(snap)
	if err != nil {
		return nil, err
	}
	liveSample, liveAgg, err := coldOpenProbes(db, sample, agg)
	if err != nil {
		return nil, err
	}

	// Cold leg: open the file, answer the first query, count.
	start = time.Now()
	cdb, err := fdb.OpenSnapshotFile(snap)
	if err != nil {
		return nil, err
	}
	cres, err := cdb.Query(join...)
	if err != nil {
		return nil, err
	}
	coldCount := cres.Count()
	coldMS := ms(start)

	// Rebuild leg: parse the TSVs, answer the same query, count.
	start = time.Now()
	rdb := fdb.New()
	for _, p := range tsvs {
		if _, err := rdb.LoadTSV(p); err != nil {
			return nil, err
		}
	}
	rres, err := rdb.Query(join...)
	if err != nil {
		return nil, err
	}
	rebuildCount := rres.Count()
	rebuildMS := ms(start)

	// Parity prechecks (outside the timed windows): counts, then the ordered
	// sample and aggregate tables byte for byte against the live database.
	if coldCount != tuples || rebuildCount != tuples {
		return nil, fmt.Errorf("bench: exp12 scale %d: counts diverge: live %d, cold %d, rebuild %d",
			scale, tuples, coldCount, rebuildCount)
	}
	for _, leg := range []struct {
		name string
		db   *fdb.DB
	}{{"cold", cdb}, {"rebuild", rdb}} {
		s, a, err := coldOpenProbes(leg.db, sample, agg)
		if err != nil {
			return nil, err
		}
		if s != liveSample {
			return nil, fmt.Errorf("bench: exp12 scale %d: %s ordered sample diverges from live:\n%s\nwant:\n%s",
				scale, leg.name, s, liveSample)
		}
		if a != liveAgg {
			return nil, fmt.Errorf("bench: exp12 scale %d: %s aggregate table diverges from live:\n%s\nwant:\n%s",
				scale, leg.name, a, liveAgg)
		}
	}
	return []float64{float64(tuples), float64(fi.Size()) / 1024, saveMS, coldMS, rebuildMS}, nil
}

// coldOpenProbes renders the two parity probes of one database to text.
func coldOpenProbes(db *fdb.DB, sample, agg []fdb.Clause) (string, string, error) {
	sres, err := db.Query(sample...)
	if err != nil {
		return "", "", err
	}
	ares, err := db.QueryAgg(agg...)
	if err != nil {
		return "", "", err
	}
	return sres.Table(-1), ares.Table(-1), nil
}
