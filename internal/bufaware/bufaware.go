// Package bufaware models §4.1: buffer-aware flow identification. An
// application generates a message and copies it into the kernel TCP send
// buffer through one or more send() syscalls; the classifier inspects
// the *first* syscall's size and declares the flow large when it exceeds
// a threshold.
//
// The paper validates this on two real applications (Memcached with the
// ETC trace at a 1KB threshold — 86.7% of >1KB flows identified — and a
// web server with the YouTube HTTP trace at a 10KB threshold — 84.3%).
// We have neither trace nor application binaries, so this package
// substitutes a synthetic write-pattern model: most messages are written
// in a single syscall, while a calibrated fraction of flows is streamed
// in sub-threshold chunks (incremental response construction), which is
// exactly the behaviour that costs the paper's classifier its missing
// ~14%. The calibration constants reproduce the published accuracies;
// the *mechanism* under test — first-syscall size predicts flow size
// when the send buffer is large enough — is identical.
package bufaware

import (
	"math/rand"

	"ppt/internal/workload"
)

// AppModel describes how an application writes a message into the send
// buffer.
type AppModel struct {
	Name string
	// WholeMsgProb is the probability a message is written with a
	// single syscall (up to send-buffer space).
	WholeMsgProb float64
	// ChunkBytes is the first-syscall size when the application streams
	// the message incrementally instead.
	ChunkBytes int64
}

// Calibrated application models (see package comment).
var (
	// Memcached serves ETC-style key-value responses; calibrated to the
	// paper's 86.7% identification accuracy at a 1KB threshold.
	Memcached = AppModel{Name: "memcached", WholeMsgProb: 0.867, ChunkBytes: 512}
	// WebServer serves YouTube-HTTP-style responses; calibrated to the
	// paper's 84.3% accuracy at a 10KB threshold.
	WebServer = AppModel{Name: "webserver", WholeMsgProb: 0.843, ChunkBytes: 4096}
	// Bulk writes every message in one syscall (the large-send-buffer
	// ideal assumed by the simulation experiments).
	Bulk = AppModel{Name: "bulk", WholeMsgProb: 1.0, ChunkBytes: 1 << 20}
)

// FirstCall returns the size of the first send() syscall for a message
// of the given size under this application model and free send-buffer
// space.
func (a AppModel) FirstCall(rng *rand.Rand, msgSize, sendBuf int64) int64 {
	if sendBuf <= 0 {
		sendBuf = 1 << 62
	}
	first := msgSize
	if rng.Float64() >= a.WholeMsgProb {
		first = a.ChunkBytes
		if first > msgSize {
			first = msgSize
		}
	}
	if first > sendBuf {
		first = sendBuf
	}
	return first
}

// Classifier is the §4.1 identifier.
type Classifier struct {
	// Threshold in bytes: a first syscall above it flags the flow
	// large (Table 3 default: 100KB; the §4.1 validation uses 1KB and
	// 10KB).
	Threshold int64
}

// IdentifyLarge applies the first-syscall test.
func (c Classifier) IdentifyLarge(firstCall int64) bool {
	return firstCall > c.Threshold
}

// Result summarizes one identification experiment.
type Result struct {
	Flows          int
	ActualLarge    int     // flows truly above the threshold
	Identified     int     // of those, flagged by the first syscall
	FalsePositives int     // small flows wrongly flagged
	Recall         float64 // Identified / ActualLarge
	Precision      float64
}

// Experiment runs the §4.1 validation: draw flows from dist, write them
// through the app model into a send buffer, classify on first-syscall
// size, and score against true sizes.
func Experiment(dist *workload.Dist, app AppModel, threshold, sendBuf int64, flows int, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	cl := Classifier{Threshold: threshold}
	var res Result
	res.Flows = flows
	var flaggedTrue int
	for i := 0; i < flows; i++ {
		size := dist.Sample(rng)
		first := app.FirstCall(rng, size, sendBuf)
		flagged := cl.IdentifyLarge(first)
		if size > threshold {
			res.ActualLarge++
			if flagged {
				res.Identified++
				flaggedTrue++
			}
		} else if flagged {
			res.FalsePositives++
		}
	}
	if res.ActualLarge > 0 {
		res.Recall = float64(res.Identified) / float64(res.ActualLarge)
	}
	if total := res.Identified + res.FalsePositives; total > 0 {
		res.Precision = float64(res.Identified) / float64(total)
	}
	return res
}
