package evalstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"slamgo/internal/hypermapper"
	"slamgo/internal/sharedfs"
)

// The evaluation-record format. A record is the full Metrics of one
// simulated configuration — four float64s and two flags — stored with
// nothing quantised and nothing derived: a store hit must be
// bit-identical to a fresh simulation, or cached and uncached campaigns
// diverge in their last floating-point bits and the reports stop
// matching.
//
// A record is this payload sealed in the sharedfs.Frame (magic "EVR1",
// version 1), which embeds the key and checksums everything. Payload
// layout (all little-endian):
//
//	f64 runtime | f64 maxATE | f64 power | f64 energy
//	u8 flags (1 Failed, 2 LowFidelity)
//
// Decoding treats *every* defect as data damage — the caller maps that
// to a miss and re-simulates, because re-simulating is always safe
// while trusting a damaged record never is.

var frame = sharedfs.Frame{Magic: "EVR1", Version: 1}

const (
	flagFailed      = 1
	flagLowFidelity = 2

	payloadSize = 4*8 + 1
)

// Encode serialises one evaluation record keyed by key. Encoding is a
// pure function of its inputs — every process simulating the same key
// produces identical bytes (the evaluator purity contract), which is
// what makes concurrent store writers benign: the last atomic rename
// wins and the winner is indistinguishable from the loser.
func Encode(key string, m hypermapper.Metrics) []byte {
	buf := make([]byte, 0, payloadSize)
	for _, v := range [4]float64{m.Runtime, m.MaxATE, m.Power, m.Energy} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	var flags uint8
	if m.Failed {
		flags |= flagFailed
	}
	if m.LowFidelity {
		flags |= flagLowFidelity
	}
	return frame.Seal(key, append(buf, flags))
}

// Decode parses an evaluation record: the frame first, then the
// payload. The returned key is the one the record was sealed under. Any
// error means the bytes cannot be trusted — the caller should treat the
// file as a miss, never as an I/O fault.
func Decode(data []byte) (key string, m hypermapper.Metrics, err error) {
	key, payload, err := frame.Open(data)
	if err != nil {
		return "", m, err
	}
	if m, err = decodeMetrics(payload); err != nil {
		return "", m, err
	}
	return key, m, nil
}

// decodeMetrics parses an EVR1 payload.
func decodeMetrics(payload []byte) (m hypermapper.Metrics, err error) {
	if len(payload) != payloadSize {
		return m, fmt.Errorf("evalstore: record payload is %d bytes, want %d", len(payload), payloadSize)
	}
	flags := payload[payloadSize-1]
	if flags&^(flagFailed|flagLowFidelity) != 0 {
		return m, fmt.Errorf("evalstore: unknown record flags %#x", flags)
	}
	var vals [4]float64
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return hypermapper.Metrics{
		Runtime: vals[0], MaxATE: vals[1], Power: vals[2], Energy: vals[3],
		Failed:      flags&flagFailed != 0,
		LowFidelity: flags&flagLowFidelity != 0,
	}, nil
}
