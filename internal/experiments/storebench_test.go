package experiments

import "testing"

// TestStoreBenchInvariants runs the store trajectory on one small
// workload and checks the claims the committed BENCH_store.json makes:
// the warm resolve hits, the repeat run stores zero new objects, and the
// store-wide accounting saw real dedup.
func TestStoreBenchInvariants(t *testing.T) {
	res, err := StoreBench([]Scale{Small}, []string{"expr", "lexer"}, 1024, 2, 1)
	if err != nil {
		t.Fatalf("StoreBench: %v", err)
	}
	if tbl := StoreLayout.Table(res); len(tbl.Rows) != 2 {
		t.Fatalf("expected a 2-row table")
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ArtifactBytes <= 0 || row.Parts < 2 {
			t.Errorf("%s@%s: artifact %d bytes in %d parts", row.Name, row.Scale, row.ArtifactBytes, row.Parts)
		}
		if row.RepeatNewObjects != 0 {
			t.Errorf("%s@%s: repeat run wrote %d new objects, want 0", row.Name, row.Scale, row.RepeatNewObjects)
		}
		if row.RepeatDedupedBytes < uint64(row.ArtifactBytes) {
			t.Errorf("%s@%s: repeat run deduped %d bytes, artifact is %d", row.Name, row.Scale, row.RepeatDedupedBytes, row.ArtifactBytes)
		}
		if row.WarmResolveMS <= 0 || row.ColdResolveMS <= 0 {
			t.Errorf("%s@%s: non-positive latency (cold %.3f, warm %.3f)", row.Name, row.Scale, row.ColdResolveMS, row.WarmResolveMS)
		}
	}
	if tot := res.Totals; tot["bytes_deduped"] == 0 || tot["dedup_ratio"] <= 0 {
		t.Errorf("store-wide dedup not observed: %v", tot)
	}
}

// TestFlateBenchGolden runs the codec-vs-gzip comparison over the
// committed corpus and sanity-checks the structural invariants (pair
// coverage and gzip actually shrinking the fixed-width v1 encoding).
func TestFlateBenchGolden(t *testing.T) {
	res, err := FlateBench("testdata/golden", 1)
	if err != nil {
		t.Fatalf("FlateBench: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows from golden corpus")
	}
	for _, row := range res.Rows {
		if row.V1Gzip <= 0 || row.V1Gzip >= row.V1Bytes {
			t.Errorf("%s/%s: gzip did not shrink v1 (%d -> %d)", row.Name, row.Pair, row.V1Bytes, row.V1Gzip)
		}
		if row.Events == 0 {
			t.Errorf("%s/%s: decoded artifact reports 0 events", row.Name, row.Pair)
		}
	}
}
