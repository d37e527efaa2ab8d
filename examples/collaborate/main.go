// Collaborate: the §2.4 scenario. Two users share a session (hitting the
// session-level lock), save an artifact whose recipe is auto-sliced, share
// it by secret link, organize the Home Screen, and publish the result to an
// Insights Board tile. Cost-control features from §3 (sampling + snapshots)
// appear along the way.
//
//	go run ./examples/collaborate
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"

	"datachat/internal/artifact"
	"datachat/internal/board"
	"datachat/internal/cloud"
	"datachat/internal/core"
	"datachat/internal/dataset"
	"datachat/internal/session"
	"datachat/internal/skills"
)

func main() {
	p := core.New()

	// A consumption-priced cloud warehouse with a large-ish table.
	db := cloud.NewDatabase("warehouse", cloud.DefaultPricing, 4096)
	n := 200_000
	ids := make([]int64, n)
	readings := make([]float64, n)
	sites := make([]string, n)
	for i := range ids {
		ids[i] = int64(i)
		readings[i] = float64(i % 997)
		sites[i] = []string{"north", "south", "east", "west"}[i%4]
	}
	if err := db.CreateTable(dataset.MustNewTable("iot_events",
		dataset.IntColumn("id", ids, nil),
		dataset.FloatColumn("reading", readings, nil),
		dataset.StringColumn("site", sites, nil),
	)); err != nil {
		log.Fatal(err)
	}
	if err := p.ConnectDatabase(db); err != nil {
		log.Fatal(err)
	}

	s, err := p.CreateSession("iot-quality", "ann")
	if err != nil {
		log.Fatal(err)
	}

	// §3: assess data quality on a cheap 10% block sample first.
	res, err := p.RequestGEL("iot-quality", "ann",
		"Sample 10% of the table iot_events from the database warehouse", "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ann sampled %d rows; cloud bill so far: $%.6f\n",
		res.Table.NumRows(), db.Meter().Cost(db.Pricing()))

	// Snapshot the table so iteration stops hitting the meter.
	if _, err := p.RequestGEL("iot-quality", "ann",
		"Create a snapshot iot_snap of the table iot_events from the database warehouse", ""); err != nil {
		log.Fatal(err)
	}
	afterSnapshot := db.Meter().BytesScanned()

	// Ann invites Bob to co-drive (§2.4).
	if err := s.Share("ann", "bob", artifact.EditAccess); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session members: %v\n", s.Members())

	// Both fire a request at once — the session-level lock makes exactly
	// the losing request fail with a retry message rather than corrupting
	// the shared DAG.
	var wg sync.WaitGroup
	outcomes := make([]error, 2)
	for i, user := range []string{"ann", "bob"} {
		wg.Add(1)
		go func(i int, user string) {
			defer wg.Done()
			_, _, outcomes[i] = s.Request(user, skills.Invocation{
				Skill: "UseSnapshot", Args: skills.Args{"name": "iot_snap"},
				Output: fmt.Sprintf("snap_%s", user),
			})
		}(i, user)
	}
	wg.Wait()
	for i, user := range []string{"ann", "bob"} {
		switch {
		case outcomes[i] == nil:
			fmt.Printf("%s's request ran\n", user)
		case errors.Is(outcomes[i], session.ErrBusy):
			fmt.Printf("%s's request was rejected: %v\n", user, outcomes[i])
		default:
			log.Fatalf("%s: %v", user, outcomes[i])
		}
	}

	// Bob iterates on the snapshot (free) to build the quality summary.
	if _, _, err := s.Request("bob", skills.Invocation{
		Skill: "UseSnapshot", Args: skills.Args{"name": "iot_snap"}, Output: "work",
	}); err != nil {
		log.Fatal(err)
	}
	if _, _, err := s.Request("bob", skills.Invocation{
		Skill: "KeepRows", Inputs: []string{"work"},
		Args: skills.Args{"condition": "reading > 500"}, Output: "hot",
	}); err != nil {
		log.Fatal(err)
	}
	_, target, err := s.Request("bob", skills.Invocation{
		Skill: "Compute", Inputs: []string{"hot"},
		Args: skills.Args{
			"aggregates": []string{"count of records as HotReadings", "avg of reading as AvgReading"},
			"for_each":   []string{"site"},
		},
		Output: "summary",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cloud bytes billed during iteration: %d (snapshots are free to read)\n",
		db.Meter().BytesScanned()-afterSnapshot)

	// Save the artifact: the recipe is sliced to just the productive steps.
	a, err := s.SaveArtifact(p.Artifacts, "bob", "hot-readings-by-site", target, artifact.TypeTable)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nartifact %q saved with a %d-step recipe (session ran %d steps)\n",
		a.Name, len(a.Recipe.Steps), s.Graph().Len())
	fmt.Print(a.Table)

	// Organize and share.
	if err := p.Home.Place("iot/quality", a.Name); err != nil {
		log.Fatal(err)
	}
	secret, err := p.Artifacts.CreateSecretLink(a.Name, "bob")
	if err != nil {
		log.Fatal(err)
	}
	shared, err := p.Artifacts.GetBySecret(secret)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsecret link minted: https://dc.example/a/%s… resolves to %q\n",
		secret[:8], shared.Name)

	// Publish to an Insights Board tile (§2.4); subscribers of the board
	// would receive the update live.
	hub := board.NewHub()
	review, err := hub.Create("iot-review", "IoT data quality review — Q2", "bob")
	if err != nil {
		log.Fatal(err)
	}
	review.Publish(a.Name, board.Update{Table: a.Table,
		Message: "Hot readings concentrate in the east sites"})
	snap := review.Snapshot()
	fmt.Printf("\ninsights board %q (version %d):\n", snap.Name, snap.Version)
	for _, tile := range snap.Tiles {
		fmt.Printf("  tile %q: %d rows — %s\n", tile.Tile, tile.Last.Table.NumRows(), tile.Last.Message)
	}

	// Every tile answers "how was this made?" via its artifact's recipe.
	gelLines, err := a.Recipe.GEL(p.Registry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrecipe behind the published artifact:")
	for i, l := range gelLines {
		fmt.Printf("%2d. %s\n", i+1, l)
	}
}
