package ann

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/durable"
)

// On-disk format. An index artifact is a directory holding one payload
// file, index.bin, sealed by the durable MANIFEST.json protocol (per-
// file SHA-256, staged sibling directory, single publish rename), so a
// crash mid-save leaves the old complete index or the new complete
// index — never a hybrid — and any later corruption surfaces as an
// error naming the damaged file.
//
// index.bin layout (all integers little-endian):
//
//	magic        8 bytes  "LEVAHNSW"
//	version      u32      format version (currently 1)
//	metric       u8       0 = cosine, 1 = dot
//	M            u32      build options, for provenance and defaults
//	efConstruct  u32
//	efSearch     u32
//	seed         u64      int64 bits
//	dim          u32
//	n            u32      vector count
//	entry        u32      entry-point node id
//	maxLevel     u32      top layer (levels[entry] == maxLevel)
//	names        n × (u32 byte length + bytes)
//	levels       n × u32
//	links        per node, per layer 0..levels[i]: u32 count + ids
//	vectors      n × dim × f64 bits (normalized for cosine)
//
// Encode is deterministic (the package determinism contract), so equal
// indexes are byte-equal files and the stage cache can address them by
// content fingerprint.

const (
	// FormatVersion is the index.bin format written by Encode.
	FormatVersion = 1
	// IndexFileName is the payload file inside an index directory.
	IndexFileName = "index.bin"

	indexMagic = "LEVAHNSW"
	// Decode guards: bounds a lying header can claim before the length
	// checks against the actual buffer kick in.
	maxNameLen = 1 << 20
	maxDim     = 1 << 20
)

// Named decode errors. Every failure of Decode/Load wraps exactly one
// of these (or an *os.PathError from the filesystem), never panics.
var (
	// ErrBadMagic marks a file that is not an ANN index at all.
	ErrBadMagic = errors.New("ann: not an ANN index file (bad magic)")
	// ErrVersion marks an index written by a newer format revision.
	ErrVersion = errors.New("ann: unsupported ANN index format version")
	// ErrCorrupt marks a truncated or internally inconsistent index.
	ErrCorrupt = errors.New("ann: corrupt or truncated ANN index")
)

// Encode serializes the index. Output is byte-identical for equal
// indexes.
func (ix *Index) Encode() []byte {
	n := len(ix.names)
	size := len(indexMagic) + 4 + 1 + 4*4 + 8 + 4*4
	for _, name := range ix.names {
		size += 4 + len(name)
	}
	size += 4 * n
	for _, ls := range ix.links {
		for _, nbs := range ls {
			size += 4 + 4*len(nbs)
		}
	}
	size += 8 * len(ix.vecs)

	buf := make([]byte, 0, size)
	buf = append(buf, indexMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	if ix.opts.Metric == MetricDot {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.opts.M))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.opts.EfConstruction))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.opts.EfSearch))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ix.opts.Seed))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.dim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.entry))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.maxLevel))
	for _, name := range ix.names {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(name)))
		buf = append(buf, name...)
	}
	for _, lvl := range ix.levels {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(lvl))
	}
	for _, ls := range ix.links {
		for _, nbs := range ls {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nbs)))
			for _, nb := range nbs {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(nb))
			}
		}
	}
	for _, v := range ix.vecs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// decoder is a bounds-checked cursor over an index.bin buffer.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (offset %d)", ErrCorrupt, fmt.Sprintf(format, args...), d.off)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail("need %d bytes, have %d", n, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Decode parses an index.bin buffer, validating every structural
// invariant (id ranges, level caps, entry point, name uniqueness)
// before returning a queryable index. It never panics on hostile
// input; failures wrap ErrBadMagic, ErrVersion, or ErrCorrupt.
func Decode(data []byte) (*Index, error) {
	if len(data) < len(indexMagic) || string(data[:len(indexMagic)]) != indexMagic {
		return nil, ErrBadMagic
	}
	d := &decoder{buf: data, off: len(indexMagic)}
	if v := d.u32(); d.err == nil && v != FormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads version %d", ErrVersion, v, FormatVersion)
	}
	metric := MetricCosine
	switch d.u8() {
	case 0:
	case 1:
		metric = MetricDot
	default:
		d.fail("unknown metric byte")
	}
	opts := Options{
		M:              int(d.u32()),
		EfConstruction: int(d.u32()),
		EfSearch:       int(d.u32()),
		Seed:           int64(d.u64()),
		Metric:         metric,
	}
	dim := int(d.u32())
	n := int(d.u32())
	entry := int32(d.u32())
	maxLevel := int32(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if opts.M < 2 || opts.EfConstruction < 1 || opts.EfSearch < 1 {
		return nil, fmt.Errorf("%w: implausible build options (M=%d efConstruction=%d efSearch=%d)",
			ErrCorrupt, opts.M, opts.EfConstruction, opts.EfSearch)
	}
	if dim < 1 || dim > maxDim {
		return nil, fmt.Errorf("%w: implausible dimension %d", ErrCorrupt, dim)
	}
	if n < 1 || n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: implausible vector count %d", ErrCorrupt, n)
	}
	if entry < 0 || int(entry) >= n || maxLevel < 0 || maxLevel > maxLevelCap {
		return nil, fmt.Errorf("%w: entry point %d / max level %d out of range", ErrCorrupt, entry, maxLevel)
	}

	ix := &Index{
		opts:     opts,
		dim:      dim,
		names:    make([]string, n),
		byName:   make(map[string]int32, n),
		levels:   make([]int32, n),
		links:    make([][][]int32, n),
		entry:    entry,
		maxLevel: maxLevel,
		scratch:  new(sync.Pool),
	}
	for i := range ix.names {
		l := d.u32()
		if l > maxNameLen {
			d.fail("name %d claims %d bytes", i, l)
		}
		b := d.take(int(l))
		if d.err != nil {
			return nil, d.err
		}
		name := string(b)
		if _, dup := ix.byName[name]; dup {
			return nil, fmt.Errorf("%w: duplicate name %q", ErrCorrupt, name)
		}
		ix.names[i] = name
		ix.byName[name] = int32(i)
	}
	for i := range ix.levels {
		lvl := int32(d.u32())
		if d.err != nil {
			return nil, d.err
		}
		if lvl < 0 || lvl > maxLevel {
			return nil, fmt.Errorf("%w: node %d has level %d above max level %d", ErrCorrupt, i, lvl, maxLevel)
		}
		ix.levels[i] = lvl
	}
	if ix.levels[entry] != maxLevel {
		return nil, fmt.Errorf("%w: entry point %d has level %d, want max level %d",
			ErrCorrupt, entry, ix.levels[entry], maxLevel)
	}
	for i := range ix.links {
		ls := make([][]int32, ix.levels[i]+1)
		for lvl := range ls {
			count := int(d.u32())
			if count > n {
				d.fail("node %d layer %d claims %d links", i, lvl, count)
			}
			if d.err != nil {
				return nil, d.err
			}
			nbs := make([]int32, count)
			for j := range nbs {
				nb := int32(d.u32())
				if d.err != nil {
					return nil, d.err
				}
				if nb < 0 || int(nb) >= n || nb == int32(i) {
					return nil, fmt.Errorf("%w: node %d layer %d links to invalid node %d", ErrCorrupt, i, lvl, nb)
				}
				nbs[j] = nb
			}
			ls[lvl] = nbs
		}
		ix.links[i] = ls
	}
	vecBytes := len(d.buf) - d.off
	if want := n * dim * 8; vecBytes != want {
		return nil, fmt.Errorf("%w: %d bytes of vector data, want %d", ErrCorrupt, vecBytes, want)
	}
	ix.vecs = make([]float64, n*dim)
	for i := range ix.vecs {
		ix.vecs[i] = math.Float64frombits(d.u64())
	}
	if d.err != nil {
		return nil, d.err
	}
	return ix, nil
}

// Save publishes the index to dir crash-safely: index.bin and the
// sealing MANIFEST.json are staged in a sibling directory and swapped
// in with one rename, exactly like SaveBundle. An existing index at
// dir stays readable until the instant the new one replaces it.
func (ix *Index) Save(dir string) error {
	return ix.save(durable.OS(), dir)
}

// save is Save over an injectable filesystem — the seam the
// fault-injection suite uses to prove crash safety.
func (ix *Index) save(fsys durable.FS, dir string) error {
	dir = filepath.Clean(dir)
	data := ix.Encode()
	if _, err := durable.RecoverDir(fsys, dir); err != nil {
		return fmt.Errorf("ann: save index: %w", err)
	}
	staging := dir + durable.StagingSuffix
	if err := fsys.RemoveAll(staging); err != nil {
		return fmt.Errorf("ann: save index: clear staging: %w", err)
	}
	if err := fsys.MkdirAll(staging, 0o755); err != nil {
		return fmt.Errorf("ann: save index: %w", err)
	}
	manifest := &durable.Manifest{FormatVersion: FormatVersion}
	if err := durable.WriteFile(fsys, filepath.Join(staging, IndexFileName), data); err != nil {
		return fmt.Errorf("ann: save index: %w", err)
	}
	manifest.Add(IndexFileName, data)
	if err := durable.WriteManifest(fsys, staging, manifest); err != nil {
		return fmt.Errorf("ann: save index: %w", err)
	}
	if err := durable.SwapDir(fsys, staging, dir); err != nil {
		return fmt.Errorf("ann: save index: %w", err)
	}
	return nil
}

// Load restores an index saved by Save. A publish interrupted between
// its two renames is repaired on the way in; index.bin is verified
// against MANIFEST.json before decoding. Unlike bundles, index
// artifacts have never existed without a manifest, so a missing
// manifest is an error, not a legacy warning.
func Load(dir string) (*Index, error) {
	dir = filepath.Clean(dir)
	if _, err := durable.RecoverDir(durable.OS(), dir); err != nil {
		return nil, fmt.Errorf("ann: load index: %w", err)
	}
	manifest, err := durable.VerifyDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ann: load index: %w", err)
	}
	if manifest.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("%w: manifest records format version %d, this build reads version %d",
			ErrVersion, manifest.FormatVersion, FormatVersion)
	}
	if manifest.Entry(IndexFileName) == nil {
		return nil, fmt.Errorf("%w: %s does not list %s", ErrCorrupt,
			filepath.Join(dir, durable.ManifestName), IndexFileName)
	}
	data, err := os.ReadFile(filepath.Join(dir, IndexFileName))
	if err != nil {
		return nil, fmt.Errorf("ann: load index: %w", err)
	}
	ix, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("ann: load index %s: %w", filepath.Join(dir, IndexFileName), err)
	}
	return ix, nil
}
