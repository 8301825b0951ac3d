package webgraph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"unsafe"
)

// On-disk binary format, version 2 ("mapped" format)
//
// Version 1 (io.go) streams the arrays through binary.Read, so opening
// a crawl costs O(pages + links) time and RAM. Version 2 lays the same
// arrays out so a reader can point at them in place:
//
//	offset  size  field
//	0       8     magic "P2PRGRPH"
//	8       8     u64 version = 2
//	16      8     u64 sites
//	24      8     u64 pages
//	32      8     u64 internal links
//	40      8     u64 external links (cached sum of ExtOut)
//	48      8     u64 fingerprint (see Store.Fingerprint)
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
// decode copy. The writer is a single pass: the layout (and the
// fingerprint, cached on every Store) is known up front, so sections
// stream out in order with no backpatching.
const (
	mappedVersion  = 2
	mappedSections = 7
	// mappedHeaderLen covers the fixed header plus the section table.
	mappedHeaderLen = 64 + mappedSections*24
)

// Section kinds, in required file order.
const (
	secSiteOff uint32 = iota + 1
	secSiteBlob
	secSiteOf
	secLocalID
	secExtOut
	secOutPtr
	secOutDst
)

var sectionNames = [...]string{
	secSiteOff:  "site-offsets",
	secSiteBlob: "site-names",
	secSiteOf:   "site-of",
	secLocalID:  "local-id",
	secExtOut:   "ext-out",
	secOutPtr:   "out-ptr",
	secOutDst:   "out-dst",
}

// SectionInfo describes one section of the version-2 layout for a
// given graph, before padding. genweb -stats prints these.
type SectionInfo struct {
	Name  string
	Count int64 // elements (bytes for the name blob)
	Bytes int64 // payload bytes, excluding alignment padding
}

type sectionDesc struct {
	kind     uint32
	elemSize uint32
	off      uint64
	count    uint64
}

func (d sectionDesc) bytes() uint64 { return d.count * uint64(d.elemSize) }

func align8(x uint64) uint64 { return (x + 7) &^ 7 }

// mappedLayout computes the section table for s and the total file
// size in bytes.
func mappedLayout(s Store) ([mappedSections]sectionDesc, uint64) {
	sites := uint64(s.NumSites())
	pages := uint64(s.NumPages())
	links := uint64(s.NumInternalLinks())
	var blob uint64
	for i := 0; i < int(sites); i++ {
		blob += uint64(len(s.SiteHost(int32(i))))
	}
	descs := [mappedSections]sectionDesc{
		{kind: secSiteOff, elemSize: 4, count: sites + 1},
		{kind: secSiteBlob, elemSize: 1, count: blob},
		{kind: secSiteOf, elemSize: 4, count: pages},
		{kind: secLocalID, elemSize: 4, count: pages},
		{kind: secExtOut, elemSize: 4, count: pages},
		{kind: secOutPtr, elemSize: 8, count: pages + 1},
		{kind: secOutDst, elemSize: 4, count: links},
	}
	off := uint64(mappedHeaderLen)
	for i := range descs {
		off = align8(off)
		descs[i].off = off
		off += descs[i].bytes()
	}
	return descs, align8(off)
}

// MappedLayout reports the version-2 section sizes the graph would
// occupy on disk and the total file size including header and padding.
func MappedLayout(s Store) ([]SectionInfo, int64) {
	descs, total := mappedLayout(s)
	infos := make([]SectionInfo, len(descs))
	for i, d := range descs {
		infos[i] = SectionInfo{
			Name:  sectionNames[d.kind],
			Count: int64(d.count),
			Bytes: int64(d.bytes()),
		}
	}
	return infos, int64(total)
}

// WriteMapped writes s in the version-2 binary format in a single
// pass. The result opens in O(1) via OpenMapped.
func WriteMapped(w io.Writer, s Store) error {
	descs, _ := mappedLayout(s)
	bw := bufio.NewWriterSize(w, 1<<16)
	var scratch [4096]byte
	pos := uint64(0)
	emit := func(b []byte) error {
		_, err := bw.Write(b)
		pos += uint64(len(b))
		return err
	}
	w64 := func(v uint64) error {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		return emit(b[:])
	}
	padTo := func(off uint64) error {
		if pos > off {
			return fmt.Errorf("webgraph: mapped writer overran section layout (%d > %d)", pos, off)
		}
		for pos < off {
			n := off - pos
			if n > uint64(len(scratch)) {
				n = uint64(len(scratch))
			}
			for i := uint64(0); i < n; i++ {
				scratch[i] = 0
			}
			if err := emit(scratch[:n]); err != nil {
				return err
			}
		}
		return nil
	}
	// i32s/i64s stream count little-endian values produced by at(i).
	i32s := func(count uint64, at func(i int) int32) error {
		n := 0
		for i := uint64(0); i < count; i++ {
			if n+4 > len(scratch) {
				if err := emit(scratch[:n]); err != nil {
					return err
				}
				n = 0
			}
			v := uint32(at(int(i)))
			scratch[n] = byte(v)
			scratch[n+1] = byte(v >> 8)
			scratch[n+2] = byte(v >> 16)
			scratch[n+3] = byte(v >> 24)
			n += 4
		}
		return emit(scratch[:n])
	}

	if err := emit([]byte(binaryMagic)); err != nil {
		return err
	}
	hdr := []uint64{
		mappedVersion,
		uint64(s.NumSites()),
		uint64(s.NumPages()),
		uint64(s.NumInternalLinks()),
		uint64(s.NumExternalLinks()),
		s.Fingerprint(),
		mappedSections,
	}
	for _, v := range hdr {
		if err := w64(v); err != nil {
			return err
		}
	}
	for _, d := range descs {
		var b [8]byte
		for i := 0; i < 4; i++ {
			b[i] = byte(d.kind >> (8 * i))
			b[4+i] = byte(d.elemSize >> (8 * i))
		}
		if err := emit(b[:]); err != nil {
			return err
		}
		if err := w64(d.off); err != nil {
			return err
		}
		if err := w64(d.count); err != nil {
			return err
		}
	}

	nSites := s.NumSites()
	nPages := s.NumPages()
	for _, d := range descs {
		if err := padTo(d.off); err != nil {
			return err
		}
		var err error
		switch d.kind {
		case secSiteOff:
			var cum uint32
			err = i32s(d.count, func(i int) int32 {
				if i > 0 {
					cum += uint32(len(s.SiteHost(int32(i - 1))))
				}
				return int32(cum)
			})
		case secSiteBlob:
			for i := 0; i < nSites && err == nil; i++ {
				err = emit([]byte(s.SiteHost(int32(i))))
			}
		case secSiteOf:
			err = i32s(d.count, func(i int) int32 { return s.SiteOf(int32(i)) })
		case secLocalID:
			err = i32s(d.count, func(i int) int32 { return s.LocalID(int32(i)) })
		case secExtOut:
			err = i32s(d.count, func(i int) int32 { return s.ExtOut(int32(i)) })
		case secOutPtr:
			var off int64
			for i := uint64(0); i < d.count && err == nil; i++ {
				err = w64(uint64(off))
				if i < d.count-1 {
					off += int64(len(s.InternalOut(int32(i))))
				}
			}
		case secOutDst:
			for p := 0; p < nPages && err == nil; p++ {
				out := s.InternalOut(int32(p))
				err = i32s(uint64(len(out)), func(i int) int32 { return out[i] })
			}
		}
		if err != nil {
			return err
		}
	}
	_, total := mappedLayout(s)
	if err := padTo(total); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteMappedFile writes s at path in the version-2 format.
func WriteMappedFile(path string, s Store) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteMapped(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Mapped is a read-only Store over a version-2 binary graph whose
// arrays alias the underlying (usually memory-mapped) bytes: opening
// is O(1) in the graph size and pages fault in on demand. Slices
// returned by InternalOut borrow the mapping and die with Close.
type Mapped struct {
	data  []byte
	unmap func() error

	sites   []string // decoded eagerly: O(sites), sites ≪ pages
	siteOf  []int32
	localID []int32
	extOut  []int32
	outPtr  []int64
	outDst  []int32

	extLinks int64
	fp       uint64
}

// OpenMapped memory-maps the version-2 graph at path. Only the header,
// section table, and site-name table are touched, so opening a
// multi-million-page graph costs O(sites), not O(pages + links); run
// Validate for a full structural check. Callers must Close the result
// when done with it and with every slice borrowed from it.
func OpenMapped(path string) (*Mapped, error) {
	data, unmap, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	m, err := parseMapped(data, unmap)
	if err != nil {
		unmap()
		return nil, err
	}
	return m, nil
}

// MappedFromBytes parses a version-2 graph already held in memory
// (tests, fuzzing). The store aliases data where alignment allows;
// data must not be mutated while the store is in use.
func MappedFromBytes(data []byte) (*Mapped, error) {
	return parseMapped(data, nil)
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
		b := data[off+uint64(i)*4:]
		out[i] = int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
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
		b := data[off+uint64(i)*8:]
		out[i] = int64(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56)
	}
	return out
}

func readU64(data []byte, off int) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(data[off+i]) << (8 * i)
	}
	return v
}

func readU32(data []byte, off int) uint32 {
	return uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24
}

// parseMapped checks the header and section table (O(1)) plus the site
// table (O(sites)), then aliases the arrays. It never reads the page
// or link sections, so corrupt payloads surface in Validate, not here.
func parseMapped(data []byte, unmap func() error) (*Mapped, error) {
	if len(data) < mappedHeaderLen {
		return nil, fmt.Errorf("webgraph: mapped: truncated header (%d bytes, need %d)", len(data), mappedHeaderLen)
	}
	if string(data[:8]) != binaryMagic {
		return nil, fmt.Errorf("webgraph: mapped: bad magic %q", data[:8])
	}
	version := readU64(data, 8)
	if version != mappedVersion {
		return nil, fmt.Errorf("webgraph: mapped: unsupported version %d (want %d; version-1 files go through ReadBinary)", version, mappedVersion)
	}
	sites := readU64(data, 16)
	pages := readU64(data, 24)
	links := readU64(data, 32)
	extLinks := readU64(data, 40)
	fp := readU64(data, 48)
	nsec := readU64(data, 56)
	const maxDim = 1 << 31
	if sites > maxDim || pages > maxDim || links > 1<<40 {
		return nil, fmt.Errorf("webgraph: mapped: implausible header (sites=%d pages=%d links=%d)", sites, pages, links)
	}
	if nsec != mappedSections {
		return nil, fmt.Errorf("webgraph: mapped: section count %d, want %d", nsec, mappedSections)
	}

	wantCount := map[uint32]uint64{
		secSiteOf:  pages,
		secLocalID: pages,
		secExtOut:  pages,
		secOutPtr:  pages + 1,
		secOutDst:  links,
		secSiteOff: sites + 1,
		// secSiteBlob count is free-form; validated against the offset
		// table below.
	}
	wantElem := map[uint32]uint32{
		secSiteOff: 4, secSiteBlob: 1, secSiteOf: 4, secLocalID: 4,
		secExtOut: 4, secOutPtr: 8, secOutDst: 4,
	}
	var descs [mappedSections]sectionDesc
	for i := 0; i < mappedSections; i++ {
		base := 64 + i*24
		d := sectionDesc{
			kind:     readU32(data, base),
			elemSize: readU32(data, base+4),
			off:      readU64(data, base+8),
			count:    readU64(data, base+16),
		}
		if d.kind != uint32(i)+1 {
			return nil, fmt.Errorf("webgraph: mapped: section %d has kind %d, want %d", i, d.kind, i+1)
		}
		if d.elemSize != wantElem[d.kind] {
			return nil, fmt.Errorf("webgraph: mapped: section %s has element size %d, want %d",
				sectionNames[d.kind], d.elemSize, wantElem[d.kind])
		}
		if want, ok := wantCount[d.kind]; ok && d.count != want {
			return nil, fmt.Errorf("webgraph: mapped: section %s has %d elements, header implies %d",
				sectionNames[d.kind], d.count, want)
		}
		if d.off%8 != 0 {
			return nil, fmt.Errorf("webgraph: mapped: section %s offset %d not 8-byte aligned", sectionNames[d.kind], d.off)
		}
		if d.off < mappedHeaderLen || d.bytes() > uint64(len(data)) || d.off > uint64(len(data))-d.bytes() {
			return nil, fmt.Errorf("webgraph: mapped: section %s [%d,+%d) outside file of %d bytes",
				sectionNames[d.kind], d.off, d.bytes(), len(data))
		}
		descs[i] = d
	}

	// Decode the site-name table eagerly.
	siteOff := aliasI32(data, descs[0].off, descs[0].count)
	blob := descs[1]
	names := make([]string, sites)
	prev := int32(0)
	for i := range names {
		lo, hi := siteOff[i], siteOff[i+1]
		if lo != prev || hi < lo || uint64(hi) > blob.count {
			return nil, fmt.Errorf("webgraph: mapped: site-name offsets corrupt at site %d", i)
		}
		names[i] = string(data[blob.off+uint64(lo) : blob.off+uint64(hi)])
		prev = hi
	}
	if uint64(prev) != blob.count {
		return nil, fmt.Errorf("webgraph: mapped: site-name blob has %d bytes, offsets cover %d", blob.count, prev)
	}

	m := &Mapped{
		data:     data,
		unmap:    unmap,
		sites:    names,
		siteOf:   aliasI32(data, descs[2].off, descs[2].count),
		localID:  aliasI32(data, descs[3].off, descs[3].count),
		extOut:   aliasI32(data, descs[4].off, descs[4].count),
		outPtr:   aliasI64(data, descs[5].off, descs[5].count),
		outDst:   aliasI32(data, descs[6].off, descs[6].count),
		extLinks: int64(extLinks),
		fp:       fp,
	}
	// O(1) endpoint sanity so OutDegree/InternalOut can trust the CSR
	// bounds. Full monotonicity is Validate's job.
	if pages > 0 && (m.outPtr[0] != 0 || m.outPtr[pages] != int64(links)) {
		return nil, fmt.Errorf("webgraph: mapped: OutPtr endpoints [%d,%d] disagree with %d links",
			m.outPtr[0], m.outPtr[pages], links)
	}
	return m, nil
}

// Close releases the mapping. Every slice borrowed from the store
// (InternalOut results, most of all) is invalid afterwards.
func (m *Mapped) Close() error {
	m.siteOf, m.localID, m.extOut, m.outPtr, m.outDst = nil, nil, nil, nil, nil
	m.data = nil
	if m.unmap == nil {
		return nil
	}
	u := m.unmap
	m.unmap = nil
	return u()
}

// NumPages returns the number of pages in the graph.
func (m *Mapped) NumPages() int { return len(m.siteOf) }

// NumSites returns the number of sites in the graph.
func (m *Mapped) NumSites() int { return len(m.sites) }

// NumInternalLinks returns the number of links inside the crawl.
func (m *Mapped) NumInternalLinks() int64 { return int64(len(m.outDst)) }

// NumExternalLinks returns the header's cached external-link sum.
func (m *Mapped) NumExternalLinks() int64 { return m.extLinks }

// OutDegree returns d(u), counting internal and external links.
//
//p2plint:hotpath
func (m *Mapped) OutDegree(u int32) int {
	return int(m.outPtr[u+1]-m.outPtr[u]) + int(m.extOut[u])
}

// InternalOut returns page u's internal out-neighbours as a slice
// borrowing the mapping; it must not be modified and dies with Close.
//
//p2plint:hotpath
func (m *Mapped) InternalOut(u int32) []int32 {
	return m.outDst[m.outPtr[u]:m.outPtr[u+1]]
}

// ExtOut returns the number of external out-links of page u.
//
//p2plint:hotpath
func (m *Mapped) ExtOut(u int32) int32 { return m.extOut[u] }

// SiteOf returns the site ID of page p.
func (m *Mapped) SiteOf(p int32) int32 { return m.siteOf[p] }

// LocalID returns page p's ordinal within its site.
func (m *Mapped) LocalID(p int32) int32 { return m.localID[p] }

// SiteHost returns the hostname of site s.
func (m *Mapped) SiteHost(s int32) string { return m.sites[s] }

// URL returns the canonical URL of page p.
func (m *Mapped) URL(p int32) string {
	var buf [64]byte
	return string(AppendURL(buf[:0], m, p))
}

// SiteName returns the hostname of page p's site.
func (m *Mapped) SiteName(p int32) string { return m.sites[m.siteOf[p]] }

// Fingerprint returns the fingerprint recorded in the file header.
// Validate recomputes it from the payload.
func (m *Mapped) Fingerprint() uint64 { return m.fp }

// Validate walks the whole file: structural invariants (monotone CSR
// pointers, in-range IDs), the cached external-link sum, and the
// header fingerprint against a recomputation from the payload.
// O(pages + links) — the price OpenMapped deliberately skips.
func (m *Mapped) Validate() error {
	n := m.NumPages()
	for i := 0; i < n; i++ {
		if m.outPtr[i] > m.outPtr[i+1] {
			return fmt.Errorf("webgraph: mapped: OutPtr not monotone at page %d", i)
		}
		if s := m.siteOf[i]; s < 0 || int(s) >= len(m.sites) {
			return fmt.Errorf("webgraph: mapped: page %d has invalid site %d", i, s)
		}
		if m.extOut[i] < 0 {
			return fmt.Errorf("webgraph: mapped: page %d has negative external count", i)
		}
	}
	for k, d := range m.outDst {
		if d < 0 || int(d) >= n {
			return fmt.Errorf("webgraph: mapped: edge %d targets invalid page %d", k, d)
		}
	}
	var ext int64
	for _, c := range m.extOut {
		ext += int64(c)
	}
	if ext != m.extLinks {
		return fmt.Errorf("webgraph: mapped: header external-link count %d, payload sums to %d", m.extLinks, ext)
	}
	if got := FingerprintOf(m); got != m.fp {
		return fmt.Errorf("webgraph: mapped: header fingerprint %#x, payload hashes to %#x", m.fp, got)
	}
	return nil
}
