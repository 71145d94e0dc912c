// Configurator: the constraint-satisfaction use case sketched in the
// paper's introduction ([5], partner-units / product configuration). The
// space of feasible configurations — compatible combinations of chassis,
// CPU, memory, storage and PSU — is a large many-to-many join whose
// factorised representation is tiny, and interactive narrowing (the user
// picks a component) is an f-plan selection on factorised data.
package main

import (
	"fmt"
	"math/rand"

	"repro"
)

func main() {
	rng := rand.New(rand.NewSource(3))
	db := fdb.New()

	// Compatibility relations between neighbouring component families.
	const chassis, cpus, mems, disks, psus = 12, 30, 25, 40, 15
	db.MustCreate("CC", "chassis", "cpu") // chassis accepts cpu
	for c := 0; c < chassis; c++ {
		for u := 0; u < cpus; u++ {
			if rng.Intn(3) != 0 {
				db.MustInsert("CC", c, u)
			}
		}
	}
	db.MustCreate("CM", "cpu", "mem") // cpu supports memory kind
	for u := 0; u < cpus; u++ {
		for m := 0; m < mems; m++ {
			if rng.Intn(3) != 0 {
				db.MustInsert("CM", u, m)
			}
		}
	}
	db.MustCreate("CD", "chassis", "disk") // chassis has bays for disk
	for c := 0; c < chassis; c++ {
		for d := 0; d < disks; d++ {
			if rng.Intn(2) == 0 {
				db.MustInsert("CD", c, d)
			}
		}
	}
	db.MustCreate("CP", "chassis", "psu") // chassis fits psu
	for c := 0; c < chassis; c++ {
		for p := 0; p < psus; p++ {
			if rng.Intn(2) == 0 {
				db.MustInsert("CP", c, p)
			}
		}
	}

	space, err := db.Query(
		fdb.From("CC", "CM", "CD", "CP"),
		fdb.Eq("CC.cpu", "CM.cpu"),
		fdb.Eq("CC.chassis", "CD.chassis"),
		fdb.Eq("CC.chassis", "CP.chassis"))
	must(err)
	fmt.Println("feasible configuration space (chassis, cpu, mem, disk, psu):")
	fmt.Printf("  configurations:        %d\n", space.Count())
	fmt.Printf("  flat data elements:    %d\n", space.FlatSize())
	fmt.Printf("  factorised singletons: %d\n", space.Size())
	fmt.Printf("  compression:           %.0fx\n", float64(space.FlatSize())/float64(space.Size()))
	fmt.Println("  f-tree (grouping hierarchy of choices):")
	fmt.Print(space.FTree())

	// Interactive narrowing: the user fixes chassis 3; the engine filters
	// the factorised space in one pass and re-normalises.
	pick, err := space.Where(fdb.Cmp("CC.chassis", fdb.EQ, 3))
	must(err)
	fmt.Println("\nafter picking chassis=3:")
	fmt.Printf("  configurations: %d, singletons: %d\n", pick.Count(), pick.Size())

	// Which CPUs remain available together with compatible memory?
	options, err := pick.Where(fdb.Project("CC.cpu", "CM.mem"))
	must(err)
	fmt.Printf("  remaining (cpu, mem) options: %d, factorised in %d singletons\n",
		options.Count(), options.Size())

	// A configurator serves this narrowing to every visitor: prepare the
	// space restricted to a parameterised chassis once and execute it per
	// session — the join is compiled exactly once.
	perChassis, err := db.Prepare(
		fdb.From("CC", "CM", "CD", "CP"),
		fdb.Eq("CC.cpu", "CM.cpu"),
		fdb.Eq("CC.chassis", "CD.chassis"),
		fdb.Eq("CC.chassis", "CP.chassis"),
		fdb.Cmp("CC.chassis", fdb.EQ, fdb.Param("chassis")))
	must(err)
	fmt.Println("\nprepared per-chassis narrowing (compiled once):")
	for c := 0; c < 4; c++ {
		sess, err := perChassis.Exec(fdb.Arg("chassis", c))
		must(err)
		fmt.Printf("  chassis=%d: %d configurations in %d singletons\n",
			c, sess.Count(), sess.Size())
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
