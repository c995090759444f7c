package ledger

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"
)

func TestNilRecorderIsSilent(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Add(Record{Kind: KindKeep, A: 1})
	r.SetRanking([]int32{0})
	r.SetMeta(Meta{Source: "full"})
	if l := r.Seal(); l != nil {
		t.Fatalf("nil recorder sealed to %+v", l)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("empty context yielded recorder %v", got)
	}
}

func TestRecorderSealRoundTrip(t *testing.T) {
	r := NewRecorder(0)
	ctx := WithRecorder(context.Background(), r)
	if FromContext(ctx) != r {
		t.Fatal("recorder did not round-trip through context")
	}
	// A detaching nil override must hide the recorder from nested stages.
	if FromContext(WithRecorder(ctx, nil)) != nil {
		t.Fatal("nil override did not detach recorder")
	}

	r.SetRanking([]int32{2, 0, 1})
	r.SetMeta(Meta{Variant: "threshold-jaccard", Delta: 0.7, Sets: 3, Universe: 9, Source: "full"})
	recs := []Record{
		{Kind: KindMustTogether, A: 0, B: 2, C: 4, X: 1.5, Y: 2},
		{Kind: KindConflict2, A: 1, B: 2, C: 3, X: 0.5, Y: 1},
		{Kind: KindKeep, Via: ViaExact, A: 0, B: 0, X: 2, Y: 5},
		{Kind: KindTrim, Via: ViaExact, A: 1, B: 0, C: 0, X: 1, Y: 5},
		{Kind: KindPlace, Via: ViaRoot, A: 0, B: -1, C: 0, X: 1},
	}
	for _, rec := range recs {
		r.Add(rec)
	}
	l := r.Seal()
	if l.Len() != len(recs) || !reflect.DeepEqual(l.Records, recs) {
		t.Fatalf("sealed records = %+v, want %+v", l.Records, recs)
	}
	if l.Meta.Truncated || l.Meta.Dropped != 0 {
		t.Fatalf("unexpected truncation: %+v", l.Meta)
	}
	if !reflect.DeepEqual(l.Ranking, []int32{2, 0, 1}) {
		t.Fatalf("ranking = %v", l.Ranking)
	}

	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, l) {
		t.Fatalf("JSON round trip:\n got %+v\nwant %+v", back, l)
	}
}

func TestRecorderBounded(t *testing.T) {
	r := NewRecorder(10)
	for i := 0; i < 25; i++ {
		r.Add(Record{Kind: KindConflict2, A: int32(i)})
	}
	l := r.Seal()
	if l.Len() != 10 {
		t.Fatalf("kept %d records, want 10", l.Len())
	}
	if !l.Meta.Truncated || l.Meta.Dropped != 15 {
		t.Fatalf("meta = %+v, want truncated with 15 dropped", l.Meta)
	}
}

func TestRecorderConcurrentAdds(t *testing.T) {
	r := NewRecorder(0)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add(Record{Kind: KindConflict2, A: int32(w), B: int32(i)})
			}
		}(w)
	}
	wg.Wait()
	l := r.Seal()
	if l.Len() != workers*per {
		t.Fatalf("got %d records, want %d", l.Len(), workers*per)
	}
	perWorker := make(map[int32]int)
	for _, rec := range l.Records {
		perWorker[rec.A]++
	}
	for w := int32(0); w < workers; w++ {
		if perWorker[w] != per {
			t.Fatalf("worker %d has %d records, want %d", w, perWorker[w], per)
		}
	}
}

func TestIndexTranslatesStableIDs(t *testing.T) {
	l := &Ledger{
		Meta:     Meta{Sets: 2, Source: "delta"},
		StableOf: []int32{3, 7}, // compact 0 = stable 3, compact 1 = stable 7
		Records: []Record{
			{Kind: KindMustTogether, A: 0, B: 1},
			{Kind: KindKeep, A: 1},
			{Kind: KindDeltaRepair, A: 7, C: 5}, // stable ID on delta stage
		},
	}
	ix := NewIndex(l)
	if got := len(ix.ForSet(3)); got != 1 {
		t.Fatalf("stable 3 has %d records, want 1", got)
	}
	recs := ix.ForSet(7)
	if len(recs) != 3 {
		t.Fatalf("stable 7 has %d records, want 3", len(recs))
	}
	if recs[2].Kind != KindDeltaRepair {
		t.Fatalf("last record for stable 7 = %v", recs[2].Kind)
	}
	if ix.Known(4) || ix.ForSet(4) != nil {
		t.Fatal("unknown stable ID resolved")
	}
	if l.Stable(1) != 7 {
		t.Fatal("Stable translation broken")
	}
}

func TestDescribeCoversAllKinds(t *testing.T) {
	for k := KindConflict2; k < kindCount; k++ {
		r := Record{Kind: k, Via: ViaExact, A: 1, B: 2, C: 3, X: 0.5, Y: 1.5}
		if s := r.Describe(); s == "" || s == "unknown record kind 0" {
			t.Fatalf("kind %v describes as %q", k, s)
		}
		if ParseKind(k.String()) != k {
			t.Fatalf("kind %v does not round-trip through its name", k)
		}
	}
	for v := ViaKernel; v < viaCount; v++ {
		if ParseVia(v.String()) != v {
			t.Fatalf("via %v does not round-trip through its name", v)
		}
	}
}
