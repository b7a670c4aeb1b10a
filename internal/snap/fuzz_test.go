package snap

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"github.com/discdiversity/disc/internal/object"
)

// reseal recomputes every in-bounds section checksum and the table
// checksum of a (possibly mutated) snapshot, so that the fuzzer's byte
// edits reach the structural checks behind the CRCs instead of dying at
// the first checksum. Inputs too short to carry a table come back as
// they are.
func reseal(data []byte) []byte {
	if len(data) < headerSize {
		return data
	}
	out := append([]byte(nil), data...)
	nsec := int(binary.LittleEndian.Uint32(out[12:]))
	if nsec <= 0 || nsec > (len(out)-headerSize)/entrySize {
		return out
	}
	for i := 0; i < nsec; i++ {
		e := out[headerSize+entrySize*i:]
		off, length := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if off <= uint64(len(out)) && length <= uint64(len(out))-off {
			binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(out[off:off+length], castagnoli))
		}
	}
	retable(out)
	return out
}

// checkRead is the fuzz property for one input: Read never panics, and
// a snapshot it accepts is one the writer can encode, whose encoding
// reads back and re-encodes byte-identically. (The encoding need not
// equal the input itself: padding bytes and unknown sections are
// accepted and not reproduced — see TestRejectFlippedBytes and
// TestUnknownSectionSkipped.)
func checkRead(t *testing.T, data []byte) {
	s, err := Read(bytes.NewReader(data))
	if err != nil {
		return
	}
	var first bytes.Buffer
	if err := Write(&first, s); err != nil {
		t.Fatalf("accepted snapshot does not re-encode: %v", err)
	}
	again, err := Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("re-encoded snapshot is rejected: %v", err)
	}
	var second bytes.Buffer
	if err := Write(&second, again); err != nil {
		t.Fatalf("re-read snapshot does not re-encode: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encoding is not stable (%d vs %d bytes)", first.Len(), second.Len())
	}
}

// FuzzSnapRead feeds the snapshot reader arbitrary bytes, each input
// both as given and resealed. The seed corpus holds the shapes the
// unit tests pin — every section combination, both precisions, a
// WAL-epoch section, truncations, bit flips and a resealed shape lie —
// and crashers found so far live under testdata/fuzz/FuzzSnapRead.
// `make fuzz-smoke` runs it briefly; run it longer with
// `go test ./internal/snap -run '^$' -fuzz FuzzSnapRead -fuzztime 10m`.
func FuzzSnapRead(f *testing.F) {
	full := encode(f, buildSnapshot(f, 24, 2, 0.3, 5, true, true, true))
	seeds := [][]byte{
		full,
		encode(f, buildSnapshot(f, 16, 1, 0.2, 6, false, false, false)),
		encode(f, buildSnapshot(f, 16, 3, 0.4, 7, true, false, false)),
		encode(f, buildSnapshot(f, 16, 2, 0.3, 8, true, true, false)),
		encode(f, buildSnapshot32(f, 12, 4, 0.5, 9, object.Cosine{}, true)),
		encode(f, buildSnapshot32(f, 12, 3, 0.5, 10, object.Euclidean{}, false)),
	}
	epoch := buildSnapshot(f, 10, 2, 0.3, 11, true, true, true)
	epoch.WALEpoch = 3
	seeds = append(seeds, encode(f, epoch))
	for _, cut := range []int{0, headerSize - 1, headerSize + entrySize, len(full) / 2, len(full) - 1} {
		seeds = append(seeds, full[:cut])
	}
	for _, at := range []int{8, 12, headerSize + 4, len(full) / 3, len(full) - 9} {
		flipped := append([]byte(nil), full...)
		flipped[at] ^= 0x40
		seeds = append(seeds, flipped)
	}
	// Shape lie: the graph's final offset no longer spans its neighbour
	// array, behind valid checksums.
	lie := buildSnapshot(f, 20, 2, 0.3, 12, false, true, false)
	good := encode(f, lie)
	lastOffset := append([]byte(nil), good...)
	for i := 0; i < int(binary.LittleEndian.Uint32(good[12:])); i++ {
		e := good[headerSize+entrySize*i:]
		if binary.LittleEndian.Uint32(e) == kindGraph {
			at := int(binary.LittleEndian.Uint64(e[8:])) + 24 + 4*lie.N
			lastOffset[at]++
		}
	}
	seeds = append(seeds, reseal(lastOffset))
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRead(t, data)
		checkRead(t, reseal(data))
	})
}
