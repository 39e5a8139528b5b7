// Decide key: the one form a resolved decide query takes inside the
// service. resolveQuery (JSON) and resolveWireQueries (binary) both build
// it once, at resolve time, and everything downstream reads it through
// the accessors below: shard routing and the decision LRU hash and store
// its bytes, and the curve table, the fresh-manager path and the
// self-checker decode it.
// Queries with the same semantics produce the same bytes on either codec,
// which is what lets the two share shard placement, cached decisions and
// audit coverage.
//
// Layout, little-endian:
//
//	scheme u8 | model u8 | k u8 | k × slack (float64 bits) | n × (bench u16, phase u16)
//
// k is 0 when every core's slack is zero, 1 when every core has the same
// slack, and n otherwise. The bench and phase widths are the wire codec's.
package service

import (
	"encoding/binary"
	"math"

	"qosrma/internal/core"
	"qosrma/internal/simdb"
)

// queryKey is a resolved decide query in its canonical binary layout.
type queryKey []byte

// keyHead is the length of the fixed scheme/model/k header.
const keyHead = 3

// appendKeyConfig validates slack and appends the key's configuration
// prefix. slack is empty (no slack), one value for every core, or one
// value per core; callers check a per-core vector's length.
func appendKeyConfig(dst []byte, scheme core.Scheme, model core.ModelKind, slack []float64) ([]byte, error) {
	k := 0
	for i, v := range slack {
		if err := checkSlack(i, v); err != nil {
			return dst, err
		}
		if v != slack[0] {
			k = len(slack)
		} else if v != 0 && k == 0 {
			k = 1
		}
	}
	dst = append(dst, byte(scheme), byte(model), byte(k))
	for _, v := range slack[:k] {
		if v == 0 {
			v = 0 // fold -0 onto +0: both mean no slack
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst, nil
}

// appendKeyApp appends one core's (bench, phase) to a key.
func appendKeyApp(dst []byte, id simdb.BenchID, phase int) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(id))
	return binary.LittleEndian.AppendUint16(dst, uint16(phase))
}

func (k queryKey) scheme() core.Scheme   { return core.Scheme(k[0]) }
func (k queryKey) model() core.ModelKind { return core.ModelKind(k[1]) }

// config is the scheme/model/slack prefix: the manager configuration.
func (k queryKey) config() []byte { return k[:keyHead+8*int(k[2])] }

// bench and phase return core i's co-phase vector element.
func (k queryKey) bench(i int) simdb.BenchID {
	return simdb.BenchID(binary.LittleEndian.Uint16(k[len(k.config())+4*i:]))
}

func (k queryKey) phase(i int) int {
	return int(binary.LittleEndian.Uint16(k[len(k.config())+4*i+2:]))
}

// slack returns core i's QoS slack.
func (k queryKey) slack(i int) float64 {
	switch k[2] {
	case 0:
		return 0
	case 1:
		i = 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(k[keyHead+8*i:]))
}

// slacks expands the slack field to n per-core values, the form
// core.Config takes.
func (k queryKey) slacks(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = k.slack(i)
	}
	return out
}
