package server

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	disc "github.com/discdiversity/disc"
)

// Result IDs are content keys. Selections are deterministic, so a
// served result is a pure function of the request that produced it:
// the dataset, algorithm and radius of a select, followed by the radius
// of every zoom applied to it since. An ID is that lineage, encoded
// canonically (one ID per lineage, one lineage per ID) as
//
//	version byte (1) | uvarint len(dataset) | dataset | algorithm code |
//	radius₀ … radiusₖ as big-endian IEEE-754 bits
//
// in unpadded base64url, which is path-safe whatever bytes the dataset
// name holds. Identical requests therefore return identical IDs, and an
// ID whose result is no longer cached is recomputed from its lineage.
const (
	resultIDVersion = 1
	// maxResultIDLen caps an ID's length in bytes; a zoom that would
	// exceed it is refused, so a decoded ID bounds its recompute work.
	maxResultIDLen = 1024
)

// algorithms lists the wire names of the selection heuristics. A name's
// index is its code in result IDs, so entries are only ever appended.
var algorithms = [...]struct {
	name string
	alg  disc.Algorithm
}{
	{"greedy", disc.AlgorithmGreedy},
	{"basic", disc.AlgorithmBasic},
	{"white-greedy", disc.AlgorithmGreedyWhite},
	{"lazy-grey", disc.AlgorithmLazyGrey},
	{"lazy-white", disc.AlgorithmLazyWhite},
	{"coverage", disc.AlgorithmCoverage},
	{"fast-coverage", disc.AlgorithmFastCoverage},
}

// algorithmCode maps a request's algorithm name ("" is greedy) to its
// code.
func algorithmCode(name string) (int, error) {
	if name == "" {
		return 0, nil
	}
	for i, a := range algorithms {
		if a.name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", name)
}

// lineage is what a result ID encodes: the select that produced the
// root result and the radius of every zoom since. radii[0] is the
// select radius.
type lineage struct {
	dataset string
	alg     int
	radii   []float64
}

// radius returns the radius of the result the lineage names.
func (l lineage) radius() float64 { return l.radii[len(l.radii)-1] }

// parent returns the lineage of the result a zoom started from.
func (l lineage) parent() lineage {
	l.radii = l.radii[:len(l.radii)-1]
	return l
}

// zoom returns the lineage of the result zoomed to r. -0 is
// canonicalised to 0 so that both spell the same ID.
func (l lineage) zoom(r float64) lineage {
	l.radii = append(append(make([]float64, 0, len(l.radii)+1), l.radii...), canonRadius(r))
	return l
}

func canonRadius(r float64) float64 {
	if r == 0 {
		return 0
	}
	return r
}

// id encodes the lineage.
func (l lineage) id() string {
	b := make([]byte, 0, 2+binary.MaxVarintLen64+len(l.dataset)+8*len(l.radii))
	b = append(b, resultIDVersion)
	b = binary.AppendUvarint(b, uint64(len(l.dataset)))
	b = append(b, l.dataset...)
	b = append(b, byte(l.alg))
	for _, r := range l.radii {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(r))
	}
	return base64.RawURLEncoding.EncodeToString(b)
}

// check reports why no request could produce the lineage, or nil. Its
// messages are the 400 bodies of the select and zoom routes.
func (l lineage) check() error {
	if l.alg < 0 || l.alg >= len(algorithms) {
		return fmt.Errorf("unknown algorithm code %d", l.alg)
	}
	for i, r := range l.radii {
		if r < 0 || math.Signbit(r) || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("disc: invalid radius %g", r)
		}
		if i > 0 && r == l.radii[i-1] {
			return fmt.Errorf("radius %g equals the current radius", r)
		}
	}
	if a := algorithms[l.alg].alg; len(l.radii) > 1 && (a == disc.AlgorithmCoverage || a == disc.AlgorithmFastCoverage) {
		return errors.New("disc: zooming requires a DisC result, not a coverage-only one")
	}
	if len(l.id()) > maxResultIDLen {
		return fmt.Errorf("result id would exceed %d bytes: dataset name too long or zoom chain too deep", maxResultIDLen)
	}
	return nil
}

var errBadResultID = errors.New("malformed result id")

// parseResultID decodes an ID back to its lineage. Anything that is not
// the canonical encoding of a lineage check accepts is errBadResultID.
func parseResultID(id string) (lineage, error) {
	if len(id) > maxResultIDLen {
		return lineage{}, errBadResultID
	}
	b, err := base64.RawURLEncoding.DecodeString(id)
	if err != nil || len(b) == 0 || b[0] != resultIDVersion {
		return lineage{}, errBadResultID
	}
	n, k := binary.Uvarint(b[1:])
	rest := b[1:]
	if k <= 0 || n > uint64(len(rest)-k) {
		return lineage{}, errBadResultID
	}
	rest = rest[k:]
	l := lineage{dataset: string(rest[:n])}
	rest = rest[n:]
	if len(rest) < 1+8 || (len(rest)-1)%8 != 0 {
		return lineage{}, errBadResultID
	}
	l.alg = int(rest[0])
	for rest = rest[1:]; len(rest) > 0; rest = rest[8:] {
		l.radii = append(l.radii, math.Float64frombits(binary.BigEndian.Uint64(rest)))
	}
	// The re-encoding comparison rejects non-minimal varints and
	// non-canonical base64 tails, so no two IDs share a lineage.
	if l.check() != nil || l.id() != id {
		return lineage{}, errBadResultID
	}
	return l, nil
}
