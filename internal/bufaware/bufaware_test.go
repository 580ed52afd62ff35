package bufaware

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ppt/internal/workload"
)

func TestFirstCallWholeMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Bulk writes everything at once, bounded by the buffer.
	if got := Bulk.FirstCall(rng, 5_000, 16_384); got != 5_000 {
		t.Fatalf("first call = %d", got)
	}
	if got := Bulk.FirstCall(rng, 50_000, 16_384); got != 16_384 {
		t.Fatalf("buffer-capped first call = %d", got)
	}
	if got := Bulk.FirstCall(rng, 50_000, 0); got != 50_000 {
		t.Fatalf("unbounded buffer first call = %d", got)
	}
}

func TestFirstCallChunked(t *testing.T) {
	chunky := AppModel{Name: "chunky", WholeMsgProb: 0, ChunkBytes: 512}
	rng := rand.New(rand.NewSource(1))
	if got := chunky.FirstCall(rng, 50_000, 16_384); got != 512 {
		t.Fatalf("chunked first call = %d", got)
	}
	// Chunk larger than the message: clamp.
	if got := chunky.FirstCall(rng, 100, 16_384); got != 100 {
		t.Fatalf("clamped chunk = %d", got)
	}
}

func TestClassifier(t *testing.T) {
	c := Classifier{Threshold: 1_000}
	if c.IdentifyLarge(1_000) {
		t.Fatal("threshold is exclusive")
	}
	if !c.IdentifyLarge(1_001) {
		t.Fatal("above threshold not flagged")
	}
}

func TestMemcachedAccuracyMatchesPaper(t *testing.T) {
	// §4.1: 86.7% of >1KB flows identified, 16KB send buffer.
	res := Experiment(workload.MemcachedETC, Memcached, 1_000, 16_384, 50_000, 42)
	if res.ActualLarge == 0 {
		t.Fatal("distribution produced no large flows")
	}
	if math.Abs(res.Recall-0.867) > 0.02 {
		t.Fatalf("recall = %.3f, want ~0.867", res.Recall)
	}
}

func TestWebServerAccuracyMatchesPaper(t *testing.T) {
	// §4.1: 84.3% of >10KB flows identified.
	res := Experiment(workload.YoutubeHTTP, WebServer, 10_000, 16_384, 50_000, 42)
	if math.Abs(res.Recall-0.843) > 0.02 {
		t.Fatalf("recall = %.3f, want ~0.843", res.Recall)
	}
}

func TestBulkModelPerfectRecallWithBigBuffer(t *testing.T) {
	res := Experiment(workload.WebSearch, Bulk, 100_000, 2<<30, 20_000, 7)
	if res.Recall != 1.0 {
		t.Fatalf("bulk recall = %v", res.Recall)
	}
	if res.FalsePositives != 0 {
		t.Fatalf("false positives = %d", res.FalsePositives)
	}
}

func TestSmallBufferNeverFlagsBelowThreshold(t *testing.T) {
	// With the send buffer at the threshold, nothing can be flagged.
	res := Experiment(workload.WebSearch, Bulk, 100_000, 100_000, 10_000, 7)
	if res.Identified != 0 || res.FalsePositives != 0 {
		t.Fatalf("flags with buffer == threshold: %+v", res)
	}
}

// Property: first call never exceeds message size or buffer space, and
// is always positive for positive messages.
func TestPropertyFirstCallBounds(t *testing.T) {
	prop := func(seed int64, msg uint32, buf uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int64(msg%10_000_000) + 1
		sndbuf := int64(buf%1_000_000) + 1
		for _, app := range []AppModel{Memcached, WebServer, Bulk} {
			fc := app.FirstCall(rng, size, sndbuf)
			if fc < 1 || fc > size || fc > sndbuf {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: precision and recall are valid probabilities and the counts
// are consistent.
func TestPropertyExperimentConsistent(t *testing.T) {
	prop := func(seed int64) bool {
		res := Experiment(workload.MemcachedETC, Memcached, 1_000, 16_384, 2_000, seed)
		if res.Identified > res.ActualLarge || res.ActualLarge > res.Flows {
			return false
		}
		return res.Recall >= 0 && res.Recall <= 1 && res.Precision >= 0 && res.Precision <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
