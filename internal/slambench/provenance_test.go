package slambench

import (
	"bytes"
	"strings"
	"testing"
)

// TestWriteCampaignProvenanceSeqCache pins the sequence-cache columns of
// the provenance table — and that they stay OUT of the deterministic
// report writers: provenance (who rendered what, which process hit the
// cache) varies by scheduling, so the table/CSV/JSON bytes must be
// identical whether or not the cache did anything.
func TestWriteCampaignProvenanceSeqCache(t *testing.T) {
	r := testCampaignReport()
	r.Cells[0].SeqSource = "cache"
	r.Cells[1].SeqSource = "inline"
	c := &r.Counters
	c.SeqRenders, c.SeqDiskHits, c.SeqMemoryHits, c.SeqDegradations, c.SeqEvictions = 2, 1, 5, 1, 3

	var buf bytes.Buffer
	if err := WriteCampaignProvenance(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"seq", "cache", "inline",
		"seqcache: renders=2 disk-hits=1 memory-hits=5 degradations=1 evictions=3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("provenance missing %q:\n%s", want, out)
		}
	}

	// The deterministic writers must be byte-identical with and without
	// the execution-provenance fields populated.
	render := func(rep *CampaignReport) []byte {
		var b bytes.Buffer
		if err := WriteCampaignTable(&b, rep); err != nil {
			t.Fatal(err)
		}
		if err := WriteCampaignCSV(&b, rep); err != nil {
			t.Fatal(err)
		}
		if err := WriteCampaignJSON(&b, rep); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(render(r), render(testCampaignReport())) {
		t.Fatal("seq provenance leaked into the deterministic report surface")
	}
}
