package webgraph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"unsafe"
)

// On-disk binary format, version 2 — the only binary format. The
// arrays are laid out so a reader can point at them in place:
//
//	offset  size  field
//	0       8     magic "P2PRGRPH"
//	8       8     u64 version = 2
//	16      8     u64 sites
//	24      8     u64 pages
//	32      8     u64 internal links
//	40      8     u64 external links (cached sum of ExtOut)
//	48      8     u64 fingerprint (see Graph.Fingerprint)
//	56      8     u64 section count = 7
//	64      7×24  section table: {u32 kind, u32 elemSize, u64 off, u64 count}
//	232     ...   section payloads, each 8-byte aligned, zero-padded
//
// Sections appear in fixed kind order: site-name offsets
// (u32 × sites+1, cumulative into the blob), site-name blob (bytes),
// SiteOf / LocalID / ExtOut (i32 × pages each), OutPtr (i64 × pages+1),
// OutDst (i32 × links). Everything is little-endian fixed width, so on
// a little-endian host every array section can be aliased directly over
// the mapped bytes; big-endian or misaligned inputs fall back to a
// decode copy. The writer is a single pass: the layout is a function of
// the counts and the fingerprint is cached on every Graph, so sections
// stream out in order with no backpatching.
const (
	binaryMagic    = "P2PRGRPH"
	mappedVersion  = 2
	mappedSections = 7
	// mappedHeaderLen covers the fixed header plus the section table.
	mappedHeaderLen = 64 + mappedSections*24
)

// Section indices, in required file order; the kind a section's table
// entry carries is its index plus one.
const (
	secSiteOff = iota
	secSiteBlob
	secSiteOf
	secLocalID
	secExtOut
	secOutPtr
	secOutDst
)

var sectionSpec = [mappedSections]struct {
	name     string
	elemSize uint64
}{
	secSiteOff:  {"site-offsets", 4},
	secSiteBlob: {"site-names", 1},
	secSiteOf:   {"site-of", 4},
	secLocalID:  {"local-id", 4},
	secExtOut:   {"ext-out", 4},
	secOutPtr:   {"out-ptr", 8},
	secOutDst:   {"out-dst", 4},
}

// sectionCounts is the element count of every section for a graph of
// the given shape (blob is the total length of the site names).
func sectionCounts(sites, blob, pages, links uint64) [mappedSections]uint64 {
	return [mappedSections]uint64{sites + 1, blob, pages, pages, pages, pages + 1, links}
}

// SectionInfo describes one section of the version-2 layout for a
// given graph, before padding. genweb -stats prints these.
type SectionInfo struct {
	Name  string
	Count int64 // elements (bytes for the name blob)
	Bytes int64 // payload bytes, excluding alignment padding
}

type sectionDesc struct {
	off   uint64
	count uint64
	bytes uint64
}

func align8(x uint64) uint64 { return (x + 7) &^ 7 }

// mappedLayout computes the section table for g and the total file
// size in bytes.
func mappedLayout(g *Graph) ([mappedSections]sectionDesc, uint64) {
	var blob uint64
	for _, host := range g.sites {
		blob += uint64(len(host))
	}
	counts := sectionCounts(uint64(len(g.sites)), blob, uint64(len(g.siteOf)), uint64(len(g.outDst)))
	var descs [mappedSections]sectionDesc
	off := uint64(mappedHeaderLen)
	for i, count := range counts {
		descs[i] = sectionDesc{off: off, count: count, bytes: count * sectionSpec[i].elemSize}
		off = align8(off + descs[i].bytes)
	}
	return descs, off
}

// MappedLayout reports the version-2 section sizes the graph would
// occupy on disk and the total file size including header and padding.
func MappedLayout(g *Graph) ([]SectionInfo, int64) {
	descs, total := mappedLayout(g)
	infos := make([]SectionInfo, len(descs))
	for i, d := range descs {
		infos[i] = SectionInfo{Name: sectionSpec[i].name, Count: int64(d.count), Bytes: int64(d.bytes)}
	}
	return infos, int64(total)
}

// WriteMapped writes g in the version-2 binary format in a single
// pass: the header, the section table, then the arrays as they are —
// so a graph that is itself backed by a file serialises with no
// intermediate copy. The result opens in O(1) via OpenMapped.
func WriteMapped(w io.Writer, g *Graph) error {
	// A bufio.Writer keeps its first error and Flush reports it, so the
	// individual writes go unchecked.
	bw := bufio.NewWriterSize(w, 1<<16)
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		bw.Write(b[:])
	}
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:4], v)
		bw.Write(b[:4])
	}
	descs, _ := mappedLayout(g)
	// endSection zero-pads section sec to the 8-byte boundary the next
	// one starts on.
	endSection := func(sec int) {
		var zero [8]byte
		bw.Write(zero[:align8(descs[sec].bytes)-descs[sec].bytes])
	}
	i32s := func(sec int, arr []int32) {
		for _, v := range arr {
			u32(uint32(v))
		}
		endSection(sec)
	}

	bw.WriteString(binaryMagic)
	for _, v := range []uint64{
		mappedVersion,
		uint64(len(g.sites)), uint64(len(g.siteOf)), uint64(len(g.outDst)),
		uint64(g.extLinks), g.fp,
		mappedSections,
	} {
		u64(v)
	}
	for i, d := range descs {
		u32(uint32(i) + 1)
		u32(uint32(sectionSpec[i].elemSize))
		u64(d.off)
		u64(d.count)
	}

	var cum uint32
	u32(cum)
	for _, host := range g.sites {
		cum += uint32(len(host))
		u32(cum)
	}
	endSection(secSiteOff)
	for _, host := range g.sites {
		bw.WriteString(host)
	}
	endSection(secSiteBlob)
	i32s(secSiteOf, g.siteOf)
	i32s(secLocalID, g.localID)
	i32s(secExtOut, g.extOut)
	for _, v := range g.outPtr {
		u64(uint64(v))
	}
	i32s(secOutDst, g.outDst)
	return bw.Flush()
}

// WriteMappedFile writes g at path in the version-2 format.
func WriteMappedFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteMapped(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Open opens the crawl file at path — the one entry point for files a
// user hands in. A file that starts with the binary magic is
// memory-mapped and fully validated, so a corrupt or truncated file is
// an error here and not a panic in whatever reads the graph later;
// anything else is parsed as the text format. Close the result when
// done with it.
func Open(path string) (*Graph, error) {
	data, unmap, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	var g *Graph
	switch {
	case len(data) == 0:
		err = errors.New("webgraph: empty graph file")
	case !bytes.HasPrefix(data, []byte(binaryMagic)):
		g, err = ReadText(bytes.NewReader(data))
	default:
		if g, err = parseMapped(data); err == nil {
			if err = g.Validate(); err == nil {
				g.unmap = unmap
				return g, nil
			}
		}
	}
	// Nothing keeps the bytes: a text graph was parsed onto the heap.
	unmap()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// OpenMapped memory-maps the version-2 graph at path without reading
// its arrays: only the header, section table and site-name table are
// touched, so opening a multi-million-page graph costs O(sites), not
// O(pages + links). It is for a file the caller has just written; a
// file from anywhere else goes through Open, which also runs Validate.
// Callers must Close the result when done with it and with every slice
// borrowed from it.
func OpenMapped(path string) (*Graph, error) {
	data, unmap, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	g, err := parseMapped(data)
	if err != nil {
		unmap()
		return nil, err
	}
	g.unmap = unmap
	return g, nil
}

// MappedFromBytes parses a version-2 graph already held in memory
// (tests, fuzzing). The graph aliases data where alignment allows;
// data must not be mutated while the graph is in use.
func MappedFromBytes(data []byte) (*Graph, error) {
	g, err := parseMapped(data)
	if err != nil {
		return nil, err
	}
	g.unmap = func() error { return nil }
	return g, nil
}

var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// aliasI32 views count little-endian int32s at data[off:] — zero-copy
// on an aligned little-endian host, decode-copy otherwise. Bounds were
// checked by the caller.
func aliasI32(data []byte, off, count uint64) []int32 {
	if count == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&data[off]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&data[off])), count)
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(data[off+uint64(i)*4:]))
	}
	return out
}

func aliasI64(data []byte, off, count uint64) []int64 {
	if count == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&data[off]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&data[off])), count)
	}
	out := make([]int64, count)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(data[off+uint64(i)*8:]))
	}
	return out
}

// parseMapped checks the header and section table (O(1)) plus the site
// table (O(sites)), then aliases the arrays. It never reads the page
// or link sections, so corrupt payloads surface in Validate, not here.
func parseMapped(data []byte) (*Graph, error) {
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(data[off:]) }
	// A foreign or old-format file says so, however short it is.
	switch {
	case len(data) >= 8 && string(data[:8]) != binaryMagic:
		return nil, fmt.Errorf("webgraph: mapped: bad magic %q", data[:8])
	case len(data) >= 16 && u64(8) != mappedVersion:
		return nil, fmt.Errorf("webgraph: mapped: unsupported format version %d (only version %d is read)", u64(8), mappedVersion)
	case len(data) < mappedHeaderLen:
		return nil, fmt.Errorf("webgraph: mapped: truncated header (%d bytes, need %d)", len(data), mappedHeaderLen)
	}
	sites, pages, links := u64(16), u64(24), u64(32)
	const maxDim = 1 << 31
	if sites > maxDim || pages > maxDim || links > 1<<40 {
		return nil, fmt.Errorf("webgraph: mapped: implausible header (sites=%d pages=%d links=%d)", sites, pages, links)
	}
	if nsec := u64(56); nsec != mappedSections {
		return nil, fmt.Errorf("webgraph: mapped: section count %d, want %d", nsec, mappedSections)
	}

	// The name blob's length is the one count the header does not
	// imply; it is checked against the offset table below.
	want := sectionCounts(sites, u64(64+secSiteBlob*24+16), pages, links)
	var offs [mappedSections]uint64
	for i, spec := range sectionSpec {
		base := 64 + i*24
		kind := binary.LittleEndian.Uint32(data[base:])
		elemSize := binary.LittleEndian.Uint32(data[base+4:])
		off, count := u64(base+8), u64(base+16)
		if kind != uint32(i)+1 {
			return nil, fmt.Errorf("webgraph: mapped: section %d has kind %d, want %d", i, kind, i+1)
		}
		if uint64(elemSize) != spec.elemSize {
			return nil, fmt.Errorf("webgraph: mapped: section %s has element size %d, want %d", spec.name, elemSize, spec.elemSize)
		}
		if count != want[i] {
			return nil, fmt.Errorf("webgraph: mapped: section %s has %d elements, header implies %d", spec.name, count, want[i])
		}
		if off%8 != 0 {
			return nil, fmt.Errorf("webgraph: mapped: section %s offset %d not 8-byte aligned", spec.name, off)
		}
		size := count * spec.elemSize
		if off < mappedHeaderLen || size > uint64(len(data)) || off > uint64(len(data))-size {
			return nil, fmt.Errorf("webgraph: mapped: section %s [%d,+%d) outside file of %d bytes", spec.name, off, size, len(data))
		}
		offs[i] = off
	}

	// Decode the site-name table eagerly.
	siteOff := aliasI32(data, offs[secSiteOff], sites+1)
	blob := string(data[offs[secSiteBlob]:][:want[secSiteBlob]])
	names := make([]string, sites)
	prev := int32(0)
	for i := range names {
		lo, hi := siteOff[i], siteOff[i+1]
		if lo != prev || hi < lo || int(hi) > len(blob) {
			return nil, fmt.Errorf("webgraph: mapped: site-name offsets corrupt at site %d", i)
		}
		names[i] = blob[lo:hi]
		prev = hi
	}
	if int(prev) != len(blob) {
		return nil, fmt.Errorf("webgraph: mapped: site-name blob has %d bytes, offsets cover %d", len(blob), prev)
	}

	g := &Graph{
		sites:    names,
		siteOf:   aliasI32(data, offs[secSiteOf], pages),
		localID:  aliasI32(data, offs[secLocalID], pages),
		extOut:   aliasI32(data, offs[secExtOut], pages),
		outPtr:   aliasI64(data, offs[secOutPtr], pages+1),
		outDst:   aliasI32(data, offs[secOutDst], links),
		extLinks: int64(u64(40)),
		fp:       u64(48),
	}
	// O(1) endpoint sanity so OutDegree/InternalOut can trust the CSR
	// bounds. Full monotonicity is Validate's job.
	if g.outPtr[0] != 0 || g.outPtr[pages] != int64(links) {
		return nil, fmt.Errorf("webgraph: mapped: OutPtr endpoints [%d,%d] disagree with %d links",
			g.outPtr[0], g.outPtr[pages], links)
	}
	return g, nil
}
