// Package wire is the versioned, self-describing binary encoding that lets
// collection-game summaries and cluster protocol messages cross process
// boundaries. Every encoded message starts with the same four-byte header —
//
//	offset 0–1  magic "TQ" (0x54 0x51)
//	offset 2    format version
//	offset 3    payload kind (KindReport, KindDirective, KindSnapshot)
//
// — followed by a little-endian payload. Decoders reject foreign bytes
// (ErrMagic), payloads from outside the supported version window
// (ErrVersion — both a future format and a retired one are explicit
// rejection, never silent misparsing), payloads of the wrong kind
// (ErrKind), short payloads (ErrTruncated) and trailing garbage. Encode∘Decode is the identity on every message type: float64
// fields are shipped bit-exact, so a summary merged from decoded shard
// summaries equals the summary merged from the originals — the property the
// cluster's ε accounting rests on (DESIGN.md §6).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Version is the current wire-format version. Bump it when the payload
// layout changes; decoders reject anything newer than what they know.
//
// Version history: 1 shipped raw arrival slices in every round directive;
// 2 added the shard-local data plane (generator specs, scale ranges,
// configure payloads, kept-row returns) with an incompatible layout;
// 3 added the fleet runtime (membership epochs in directives and reports,
// Hello/Join/Heartbeat ops, coordinator snapshots) and the GRR mechanism
// arity, again with an incompatible layout; 4 added the pipelined round
// schedule's combined ClassifyGenerate op (round r's threshold broadcast
// carrying round r+1's generator spec, so the two phases share one RTT);
// 5 added round tracing (the coordinator-minted Trace ID in every
// directive, echoed by reports) and per-phase worker timings in reports
// (GenerateNanos/SummarizeNanos/ClassifyNanos), so the coordinator can
// attribute round wall-clock to itself, the network, and each worker;
// 6 added per-core worker parallelism and the adaptive-ε focus window:
// generate directives may carry per-sub-shard seed slots (GenSpec.Subs)
// whose reports answer with per-sub percentile sums (Report.PctSums),
// directives carry the trim-threshold focus window
// (FocusPct/FocusWidth/FocusTighten) workers tighten their sketches
// around, and snapshots fingerprint SubShards and the focus knobs;
// 7 added the aggregator tier: a TreeInfo topology probe op, per-leaf
// dataset cuts on scale directives (Directive.Cuts), and subtree-shaped
// report fields (Leaves/Height/LostLeaves, concatenated per-leaf vector
// deltas in Vecs, and per-level merge timings in MergeNanos) so a report
// can stand for a whole subtree of worker slots instead of one worker;
// 8 moved the row game's kept pools worker-side: classify reports stop
// shipping per-round kept rows and instead carry per-leaf pool totals
// (Report.PoolRows), two ops page and roll back the pools at game end and
// resume (OpFetchRows with Directive.Leaf addressing, OpPoolTrim), and
// row-game snapshots (SnapRows) checkpoint O(1/ε) coordinator state —
// the robust-center vector sketch, the late-center delay line, and the
// per-leaf pool manifest — instead of any rows; 9 retired the
// coordinator-fed data plane: the Summarize/SummarizeRows ops (codes 2 and
// 3, never reused), the raw arrival slice and poison offset they carried
// and the kept-row indices their classify replies returned — every cluster
// round is shard-local; 10 gave every phase one representation: a
// generator spec carries its draws only as a list of cells (the aggregate
// seed and counts and the sub-shard list are gone; at least one cell),
// reports carry only per-cell percentile sums (the total is gone), the
// row game's GenerateRows op (code 7, never reused) folds into Generate,
// and a clean-scale request is one attachment (a scale center plus the
// dataset range, answered in a scale summary and its extrema) whether it
// travels alone as Scale or rides ClassifyGenerate; 11 made the summary
// block compact — each entry a key delta of its value plus, for integral
// ranks, three uvarints, instead of four raw f64s (sketch.go) — in every
// summary-bearing block alike; entry-free messages keep their bytes apart
// from the version byte, and a v10 checkpoint cannot resume under v11;
// 12 moved the row game's clean scale to the coordinator: the Scale op
// (code 8, never reused), the directive's scale center, the report's scale
// summary and extrema and the snapshot's third delay-line center are gone;
// 13 made a plain worker answer as the one-leaf subtree it is: every reply
// carries Leaves ≥ 1 (a decoder refuses 0), the row game's vector deltas
// ride only in the per-leaf Vecs list (the single-worker Vec slot is
// gone), a pool-trim target rides only in Cuts, and the TreeInfo probe
// (code 13, never reused) is retired — an aggregator probes a child with
// a Heartbeat, whose reply carries the shape; 14 changed the configure
// contract and not the layout: a shard-local worker keeps one sorted pool,
// so a scalar configure ships only RefSorted (its Pool is empty, and a
// worker refuses one that is not), an LDP or GRR configure ships its input
// pool sorted, and honest draws index that sorted array instead of a
// caller-ordered pool — one game must not be played under two draw
// contracts, so v13 is retired; 15 dropped the snapshot stream state's
// weight flag and weight buffer (streams count observations, so a push
// buffer holds values only), and a v14 checkpoint cannot resume under v15;
// 16 pads a configure's three bulk blocks (the row matrix, Pool and
// RefSorted) with zero bytes so each block's elements start 8-byte aligned
// from the message start, which lets DecodeDirective return them as views
// of the message instead of copies (an empty block gets no pad, so every
// per-round directive keeps its v15 bytes apart from the version byte; a
// v15 checkpoint cannot resume under v16, although no snapshot byte moved);
// 17 retired the standalone summary and vector messages (kinds 1 and 2,
// never reused): summaries and vector deltas travel only as blocks inside
// reports, directives and snapshots, whose bytes are those of v16 apart
// from the version byte; 18 made a configure's dataset decode flat — its
// Rows are a Matrix (Dim plus row-major Data), one view of the message with
// no per-row slice headers — and its Labels a padded u32 block, 4-byte
// aligned from the message start and viewed in place like the f64 blocks
// (a label block that starts aligned gets no pad, so the configures of
// format 17 keep their bytes apart from the version byte).
const Version = 18

// MinVersion is the oldest format this decoder still parses. Each version
// so far changed the protocol contract (layout, or — v4 — an op an older
// worker would reject mid-game, or — v14 — what a configure's pool means),
// so its predecessor is retired: a mixed-version cluster fails loudly at
// the configure fan-out instead of misparsing or dying rounds later.
const MinVersion = 18

const (
	magic0 = 'T'
	magic1 = 'Q'

	headerSize = 4
)

// Kind tags the payload type carried after the header.
type Kind byte

// The message kinds. Report and Directive shipped with format version 1;
// Snapshot (a checkpointed coordinator game state) with 3. Codes 1 and 2,
// the standalone summary and vector messages, were retired in format 17
// and are never reused.
const (
	KindReport    Kind = 3 // worker → coordinator shard report
	KindDirective Kind = 4 // coordinator → worker directive
	KindSnapshot  Kind = 5 // checkpointed coordinator game state
)

// Decode errors. Wrapped with context; test with errors.Is.
var (
	ErrTruncated = errors.New("wire: truncated payload")
	ErrMagic     = errors.New("wire: bad magic")
	ErrVersion   = errors.New("wire: unsupported version")
	ErrKind      = errors.New("wire: unexpected payload kind")
)

// appendHeader starts an encoded message.
func appendHeader(buf []byte, k Kind) []byte {
	return append(buf, magic0, magic1, Version, byte(k))
}

// checkHeader validates the four-byte header and returns the payload.
func checkHeader(buf []byte, want Kind) ([]byte, error) {
	if len(buf) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte message is shorter than the header", ErrTruncated, len(buf))
	}
	if buf[0] != magic0 || buf[1] != magic1 {
		return nil, fmt.Errorf("%w: %#02x %#02x", ErrMagic, buf[0], buf[1])
	}
	if buf[2] > Version || buf[2] < MinVersion {
		return nil, fmt.Errorf("%w: message version %d, decoder supports %d–%d", ErrVersion, buf[2], MinVersion, Version)
	}
	if Kind(buf[3]) != want {
		return nil, fmt.Errorf("%w: kind %d, want %d", ErrKind, buf[3], want)
	}
	return buf[headerSize:], nil
}

// appendU32/appendU64/appendF64 write little-endian scalars.
func appendU32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }
func appendU64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }
func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// Block codecs. A block is the elements behind one length prefix — floats,
// row elements, ints — wherever it nests: configure payloads, kept-row
// pages, snapshot stream states. It is written by growing the output once
// and storing each element at its offset, and read by slicing the whole
// block out of the payload once (reader.next, after count has checked the
// prefix) and loading each element from that slice. Each element is its
// fields, little-endian, in declaration order — the bytes the scalar
// appenders would write. Summary blocks have a compact, variable-length
// layout of their own (sketch.go).

// extend grows buf once by n bytes and returns it together with the new
// n-byte tail for the caller to fill.
func extend(buf []byte, n int) (out, tail []byte) {
	off := len(buf)
	out = slices.Grow(buf, n)[:off+n]
	return out, out[off:]
}

// reserve returns buf with room for n more bytes, in an array of exactly
// that size when it must grow (slices.Grow would round the capacity up).
func reserve(buf []byte, n int) []byte {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	out := make([]byte, len(buf), len(buf)+n)
	copy(out, buf)
	return out
}

func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
func getF64(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// appendF64Block writes vs as consecutive f64s, without a length prefix.
func appendF64Block(buf []byte, vs []float64) []byte {
	buf, b := extend(buf, 8*len(vs))
	for i, v := range vs {
		putF64(b[8*i:], v)
	}
	return buf
}

// getF64s fills out from the f64 block b (8·len(out) bytes).
func getF64s(out []float64, b []byte) {
	for i := range out {
		out[i] = getF64(b[8*i:])
	}
}

// Padded blocks. A configure's bulk blocks — the row matrix, Pool,
// RefSorted (f64 elements) and Labels (u32 elements) — pad their elements to
// a multiple of the element size from the message start (format 16; the
// label block since format 18), so a decoder can hand them out as views of
// the message instead of copies. The pad is the zero bytes between the
// block's prefix and its first element; an empty block has no elements and
// no pad.

// littleEndian reports whether the host stores a number in the wire's byte
// order, the first condition for viewing a block in place.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// appendPad appends the zero bytes that bring buf to a multiple of size
// bytes from the message that starts at buf[start].
func appendPad(buf []byte, start, size int) []byte {
	for (len(buf)-start)%size != 0 {
		buf = append(buf, 0)
	}
	return buf
}

// appendPaddedF64s writes a u32-counted f64 block whose elements start
// 8-byte aligned from the message that starts at buf[start].
func appendPaddedF64s(buf []byte, start int, vs []float64) []byte {
	buf = appendU32(buf, uint32(len(vs)))
	if len(vs) > 0 {
		buf = appendPad(buf, start, 8)
	}
	return appendF64Block(buf, vs)
}

// appendPaddedU32s writes a u32-counted u32 block whose elements start
// 4-byte aligned from the message that starts at buf[start].
func appendPaddedU32s(buf []byte, start int, vs []uint32) []byte {
	buf = appendU32(buf, uint32(len(vs)))
	if len(vs) > 0 {
		buf = appendPad(buf, start, 4)
	}
	buf, b := extend(buf, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	return buf
}

// blockView returns the block b of f64 or u32 elements as a []E that shares
// b's memory — length and capacity len(b)/size(E), so an append cannot
// reach past the block — or nil when it cannot: on a big-endian host, where
// the bytes are not an element's, and when b does not start aligned to the
// element size. It is the package's one use of unsafe. The view aliases the
// message, so it is valid only while the caller neither modifies nor reuses
// the message's bytes, and its holder must only read it.
func blockView[E float64 | uint32](b []byte) []E {
	var zero E
	size := int(unsafe.Sizeof(zero))
	if !littleEndian || len(b) < size {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%uintptr(size) != 0 {
		return nil
	}
	return unsafe.Slice((*E)(p), len(b)/size)
}

// reader is a bounds-checked little-endian cursor over a payload. The first
// failed read latches err; subsequent reads return zero values, so decoders
// can read a whole struct and check err once.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: reading %s at offset %d of %d", ErrTruncated, what, r.off, len(r.buf))
	}
}

// failAt latches ErrTruncated for a read at off and returns it — for block
// decoders that walk the payload with their own cursor.
func (r *reader) failAt(off int, what string) error {
	r.off = off
	r.fail(what)
	return r.err
}

func (r *reader) u8(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

// count reads a u32 element count and verifies the remaining payload can
// hold count elements of elemSize bytes, so corrupt counts fail with
// ErrTruncated instead of attempting a huge allocation.
func (r *reader) count(what string, elemSize int) int {
	n := int(r.u32(what))
	if r.err == nil && n*elemSize > len(r.buf)-r.off {
		r.fail(what + " elements")
	}
	if r.err != nil {
		return 0
	}
	return n
}

// next returns the next n payload bytes and advances past them — a whole
// block in one bounds check. n must come from a length prefix count has
// accepted (count·elemSize bytes are known to remain).
func (r *reader) next(n int) []byte {
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// pad skips a padded block's pad — the bytes that bring the cursor to a
// multiple of size bytes from the message start, which lies headerSize
// bytes before the payload. A pad that runs past the payload fails with
// ErrTruncated and a non-zero pad byte is refused, so an accepted message
// re-encodes to its own bytes.
func (r *reader) pad(what string, size int) {
	if r.err != nil {
		return
	}
	n := (size - (headerSize+r.off)%size) % size
	if n > len(r.buf)-r.off {
		r.fail(what + " pad")
		return
	}
	for i, b := range r.buf[r.off : r.off+n] {
		if b != 0 {
			r.err = fmt.Errorf("wire: non-zero pad byte %#02x before %s at offset %d", b, what, r.off+i)
			return
		}
	}
	r.off += n
}

// paddedBlock returns the next n elements of a padded block of size-byte
// elements: the pad is skipped and the element bytes checked against the
// payload, then the elements are returned as a view of the message when
// blockView allows it and decoded into a copy with get otherwise. nil on
// failure.
func paddedBlock[E float64 | uint32](r *reader, what string, n, size int, get func([]byte) E) []E {
	r.pad(what, size)
	if r.err == nil && n > (len(r.buf)-r.off)/size {
		r.fail(what + " elements")
	}
	if r.err != nil {
		return nil
	}
	b := r.next(size * n)
	if v := blockView[E](b); v != nil {
		return v
	}
	out := make([]E, n)
	for i := range out {
		out[i] = get(b[size*i:])
	}
	return out
}

// readPadded reads a u32-counted padded block (paddedBlock); empty decodes
// to nil.
func readPadded[E float64 | uint32](r *reader, what string, size int, get func([]byte) E) []E {
	n := r.count(what, size)
	if n == 0 {
		return nil
	}
	return paddedBlock(r, what, n, size, get)
}

// finish rejects trailing bytes: a well-formed message is consumed exactly.
func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes after payload", len(r.buf)-r.off)
	}
	return nil
}

// f64s reads a u32-counted f64 block; empty decodes to nil.
func (r *reader) f64s(what string) []float64 {
	n := r.count(what, 8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	getF64s(out, r.next(8*n))
	return out
}

// appendF64s writes a u32-counted f64 block.
func appendF64s(buf []byte, vs []float64) []byte {
	return appendF64Block(appendU32(buf, uint32(len(vs))), vs)
}
