// Package search implements the application the paper's introduction
// motivates: a distributed search engine over the DHT, where page
// ranking "is not only needed as in its centralized counterpart for
// improving query results, but should be performed distributedly".
//
// It follows the P2P web-search architecture of the paper's reference
// [17] (Li et al., "On the Feasibility of Peer-to-Peer Web Indexing and
// Search"): the inverted index is partitioned by term — the overlay
// owner of hash(term) stores that term's posting list — while pages
// (and their ranks) live on the rankers chosen by the §4.1 page
// partition. Queries resolve each term to its owner, intersect posting
// lists, and order results by the distributed PageRank scores.
//
// Page text is synthesized: each page deterministically draws terms
// from a Zipf-skewed vocabulary, seeded by its stable URL, so the index
// is reproducible and recrawl-stable without storing documents.
package search

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/par"
	"p2prank/internal/partition"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// skew is the Zipf exponent of term popularity: 1, natural-language-
// like. At skew 1 every term's probability is at least 1/(V·H_V), far
// above float64 resolution for any vocabulary that fits in memory, so
// every term can be drawn and any TermsPerPage ≤ Vocabulary is
// reachable.
const skew = 1.0

// Config parameterizes the synthetic text model and index.
type Config struct {
	// Vocabulary is the number of distinct terms (default 5000).
	Vocabulary int
	// TermsPerPage is how many distinct terms each page contains
	// (default 12).
	TermsPerPage int
}

// DefaultConfig returns the standard text model.
func DefaultConfig() Config {
	return Config{Vocabulary: 5000, TermsPerPage: 12}
}

// WithDefaults returns the config with zero fields filled in, or an
// error for out-of-range values — the exported spelling of the
// validation Build applies, for packages (internal/serve) that build
// their own structures from the same text model.
func (c Config) WithDefaults() (Config, error) {
	m, err := compile(c)
	return m.cfg, err
}

// model is the compiled text model: the config with its defaults
// filled in and validated, and the term-popularity table every page's
// draw samples.
type model struct {
	cfg  Config
	zipf *xrand.ZipfTable
}

// compile fills in cfg's defaults, validates it and attaches the Zipf
// table for its Vocabulary.
func compile(cfg Config) (model, error) {
	if cfg.Vocabulary == 0 {
		cfg.Vocabulary = 5000
	}
	if cfg.TermsPerPage == 0 {
		cfg.TermsPerPage = 12
	}
	m := model{cfg: cfg}
	if cfg.Vocabulary < 1 || cfg.TermsPerPage < 1 {
		return m, fmt.Errorf("search: vocabulary %d / terms-per-page %d must be positive",
			cfg.Vocabulary, cfg.TermsPerPage)
	}
	if cfg.TermsPerPage > cfg.Vocabulary {
		return m, fmt.Errorf("search: TermsPerPage %d exceeds vocabulary %d",
			cfg.TermsPerPage, cfg.Vocabulary)
	}
	m.zipf = zipfTable(cfg.Vocabulary)
	return m, nil
}

// tables memoizes the Zipf table per Vocabulary. The table is
// an immutable pure function of its key, so the memo is invisible to
// callers; it exists because the table costs Vocabulary math.Pow calls
// — a thousand times one page's draw — and TermsOf takes a Config, not
// a compiled model.
var tables struct {
	sync.Mutex
	m map[int]*xrand.ZipfTable
}

// maxTables bounds the memo: a process sweeping text models keeps the
// recent ones instead of every one.
const maxTables = 16

func zipfTable(vocabulary int) *xrand.ZipfTable {
	tables.Lock()
	defer tables.Unlock()
	if t := tables.m[vocabulary]; t != nil {
		return t
	}
	if tables.m == nil || len(tables.m) >= maxTables {
		tables.m = make(map[int]*xrand.ZipfTable)
	}
	t := xrand.NewZipfTable(vocabulary, skew)
	tables.m[vocabulary] = t
	return t
}

// AppendTermName appends term t's canonical name ("term%05d") to dst
// and returns the extended slice — the allocation-free spelling for
// the query path. Negative terms (never produced by the text model)
// render without zero padding.
//
//p2plint:hotpath
func AppendTermName(dst []byte, t int32) []byte {
	dst = append(dst, "term"...)
	if t < 0 {
		return strconv.AppendInt(dst, int64(t), 10)
	}
	for pow := int32(10000); pow >= 10; pow /= 10 {
		if t < pow {
			dst = append(dst, '0')
		}
	}
	return strconv.AppendInt(dst, int64(t), 10)
}

// TermName renders term t as its canonical string.
func TermName(t int32) string {
	var buf [16]byte
	return string(AppendTermName(buf[:0], t))
}

// TermsOf returns page p's distinct terms, ascending. The draw is a
// pure function of the page's URL (stable across recrawls) and cfg.
func TermsOf(g *webgraph.Graph, p int32, cfg Config) ([]int32, error) {
	m, err := compile(cfg)
	if err != nil {
		return nil, err
	}
	return m.appendTerms(make([]int32, 0, m.cfg.TermsPerPage), g, p), nil
}

// appendTerms appends page p's terms to dst, ascending: the first
// TermsPerPage distinct draws of the Zipf stream seeded by the page's
// URL hash, kept sorted as they arrive. It allocates nothing when dst
// has room.
//
//p2plint:hotpath
func (m model) appendTerms(dst []int32, g *webgraph.Graph, p int32) []int32 {
	var url [96]byte
	id := nodeid.HashBytes(webgraph.AppendURL(url[:0], g, p))
	var rng xrand.Rand
	rng.Seed(id.Lo ^ id.Hi)
	z := m.zipf.Sampler(&rng)
	base := len(dst)
	for len(dst)-base < m.cfg.TermsPerPage {
		t := int32(z.Sample())
		if i, dup := slices.BinarySearch(dst[base:], t); !dup {
			dst = slices.Insert(dst, base+i, t)
		}
	}
	return dst
}

// TermMatrix is one crawl's text, drawn once: row p holds page p's
// TermsPerPage terms, ascending. Both inverted indexes — the
// term-partitioned Index here and the per-shard one in internal/serve
// — are transposes of it, so a caller that builds more than one over
// the same crawl draws the matrix once and hands it to each.
type TermMatrix struct {
	g     *webgraph.Graph
	cfg   Config
	terms []int32 // NumPages × TermsPerPage, row-major
}

// drawBlock is how many pages one parallel fill shard covers: a fixed
// size, so the split never depends on the worker count.
const drawBlock = 512

// DrawTerms draws every page's terms. Rows are filled in parallel over
// fixed page blocks; each page writes only its own row, so the matrix
// is the same at any GOMAXPROCS.
func DrawTerms(g *webgraph.Graph, cfg Config) (*TermMatrix, error) {
	m, err := compile(cfg)
	if err != nil {
		return nil, err
	}
	n, per := g.NumPages(), m.cfg.TermsPerPage
	tm := &TermMatrix{g: g, cfg: m.cfg, terms: make([]int32, n*per)}
	par.Default().Run(par.Blocks(n, drawBlock), func(b int) {
		for p := b * drawBlock; p < min(n, (b+1)*drawBlock); p++ {
			// The row's capacity is exactly its span: the append lands
			// in place.
			m.appendTerms(tm.terms[p*per:p*per:(p+1)*per], g, int32(p))
		}
	})
	return tm, nil
}

// Config returns the text model the matrix was drawn from, defaults
// filled in.
func (tm *TermMatrix) Config() Config { return tm.cfg }

// Graph returns the crawl the matrix was drawn over.
func (tm *TermMatrix) Graph() *webgraph.Graph { return tm.g }

// Row returns page p's terms, ascending. The slice aliases the matrix
// and must not be modified.
//
//p2plint:hotpath
func (tm *TermMatrix) Row(p int32) []int32 {
	per := tm.cfg.TermsPerPage
	return tm.terms[int(p)*per : (int(p)+1)*per]
}

// Posting is one entry of a term's posting list: a page and its rank.
type Posting struct {
	Page  int32
	Score float64
}

// Index is the term-partitioned inverted index plus the rank vector.
type Index struct {
	cfg    Config
	ov     overlay.Network
	ranks  vecmath.Vec
	g      *webgraph.Graph
	assign *partition.Assignment
	// termOwner[t] is the ranker storing term t's posting list.
	termOwner []int32
	// postings[t] is sorted by Score descending (ties: page index).
	postings [][]Posting
	// PostingsMoved counts postings whose page lives on a different
	// ranker than the term owner — the index-construction traffic the
	// feasibility analysis of [17] is about.
	PostingsMoved int64
	// PostingsTotal counts all postings.
	PostingsTotal int64
}

// Build constructs the index from a ranked crawl. ranks must be the
// page-indexed rank vector (distributed or centralized); assign is the
// page partition; ov places terms on rankers.
func Build(g *webgraph.Graph, ranks vecmath.Vec, ov overlay.Network, assign *partition.Assignment, cfg Config) (*Index, error) {
	tm, err := DrawTerms(g, cfg)
	if err != nil {
		return nil, err
	}
	return BuildFrom(tm, ranks, ov, assign)
}

// sortShards is how many parallel shards the posting-list sort is
// split into (fixed, like drawBlock).
const sortShards = 16

// BuildFrom is Build over an already drawn term matrix: count each
// term's pages, prefix-sum, and fill every posting list into its exact
// span of one backing array.
func BuildFrom(tm *TermMatrix, ranks vecmath.Vec, ov overlay.Network, assign *partition.Assignment) (*Index, error) {
	g, cfg := tm.g, tm.cfg
	if len(ranks) != g.NumPages() {
		return nil, fmt.Errorf("search: ranks have length %d, want %d", len(ranks), g.NumPages())
	}
	if assign != nil && len(assign.GroupOf) != g.NumPages() {
		return nil, fmt.Errorf("search: assignment covers %d pages, want %d",
			len(assign.GroupOf), g.NumPages())
	}
	ix := &Index{
		cfg:           cfg,
		ov:            ov,
		ranks:         ranks,
		g:             g,
		assign:        assign,
		termOwner:     make([]int32, cfg.Vocabulary),
		postings:      make([][]Posting, cfg.Vocabulary),
		PostingsTotal: int64(len(tm.terms)),
	}
	var name [16]byte
	for t := range ix.termOwner {
		ix.termOwner[t] = int32(ov.Owner(nodeid.HashBytes(AppendTermName(name[:0], int32(t)))))
	}
	// off[t]:off[t+1] is term t's span of the backing array; next[t]
	// walks it during the fill.
	off := make([]int64, cfg.Vocabulary+1)
	for _, t := range tm.terms {
		off[t+1]++
	}
	for t := range ix.postings {
		off[t+1] += off[t]
	}
	next := slices.Clone(off[:cfg.Vocabulary])
	backing := make([]Posting, len(tm.terms))
	for p := range ranks {
		for _, t := range tm.Row(int32(p)) {
			backing[next[t]] = Posting{Page: int32(p), Score: ranks[p]}
			next[t]++
			if assign != nil && assign.GroupOf[p] != ix.termOwner[t] {
				ix.PostingsMoved++
			}
		}
	}
	// Sort every list best first, in parallel over posting-balanced term
	// ranges: each list is its own span of backing, so nothing written
	// is shared.
	bounds := par.SplitPrefix(off, sortShards)
	par.Default().Run(len(bounds)-1, func(b int) {
		for t := bounds[b]; t < bounds[b+1]; t++ {
			ps := backing[off[t]:off[t+1]:off[t+1]]
			slices.SortFunc(ps, func(x, y Posting) int {
				if x.Score != y.Score {
					return cmp.Compare(y.Score, x.Score)
				}
				return cmp.Compare(x.Page, y.Page)
			})
			ix.postings[t] = ps
		}
	})
	return ix, nil
}

// TermOwner returns the ranker storing term t's posting list.
func (ix *Index) TermOwner(t int32) (int32, error) {
	if t < 0 || int(t) >= ix.cfg.Vocabulary {
		return 0, fmt.Errorf("%w: term %d, vocabulary %d", ErrUnknownTerm, t, ix.cfg.Vocabulary)
	}
	return ix.termOwner[t], nil
}

// PostingList returns term t's postings, best first. The slice aliases
// index storage and must not be modified.
func (ix *Index) PostingList(t int32) ([]Posting, error) {
	if t < 0 || int(t) >= ix.cfg.Vocabulary {
		return nil, fmt.Errorf("%w: term %d, vocabulary %d", ErrUnknownTerm, t, ix.cfg.Vocabulary)
	}
	return ix.postings[t], nil
}
