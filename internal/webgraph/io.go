package webgraph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text format
//
// A human-editable line format so small real edge lists can be fed in:
//
//	# comment
//	site <id> <hostname>
//	page <pageID> <siteID>
//	link <src> <dst>
//	ext <pageID> <count>
//
// Page and site IDs must be dense and ascending (page 0,1,2,...), which
// keeps the reader a single pass.

// WriteText writes g in the text format.
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# p2prank webgraph: %d sites, %d pages, %d internal links\n",
		g.NumSites(), g.NumPages(), g.NumInternalLinks())
	for i := 0; i < g.NumSites(); i++ {
		fmt.Fprintf(bw, "site %d %s\n", i, g.SiteHost(int32(i)))
	}
	for p := 0; p < g.NumPages(); p++ {
		fmt.Fprintf(bw, "page %d %d\n", p, g.SiteOf(int32(p)))
	}
	for p := 0; p < g.NumPages(); p++ {
		for _, d := range g.InternalOut(int32(p)) {
			fmt.Fprintf(bw, "link %d %d\n", p, d)
		}
		if ext := g.ExtOut(int32(p)); ext > 0 {
			fmt.Fprintf(bw, "ext %d %d\n", p, ext)
		}
	}
	return bw.Flush()
}

// ReadText parses the text format. Page ids, site ids and counts are
// int32 everywhere downstream, so they are parsed at that width: an
// out-of-range value is a line-numbered error, not a wrapped id.
func ReadText(r io.Reader) (*Graph, error) {
	var b Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fail := func(msg string) error {
			return fmt.Errorf("webgraph: line %d: %s: %q", lineNo, msg, line)
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fail("want a directive and 2 arguments")
		}
		// Every directive's first argument is a number, and every
		// directive's but site's second one.
		x, err := strconv.ParseInt(fields[1], 10, 32)
		var y int64
		if err == nil && fields[0] != "site" {
			y, err = strconv.ParseInt(fields[2], 10, 32)
		}
		if err != nil {
			return nil, fail("ids and counts must be 32-bit integers")
		}
		switch fields[0] {
		case "site":
			if got := b.AddSite(fields[2]); int64(got) != x {
				return nil, fail(fmt.Sprintf("site ids must be dense ascending (got %d)", got))
			}
		case "page":
			if y < 0 || int(y) >= len(b.sites) {
				return nil, fail("unknown site")
			}
			if got := b.AddPage(int32(y)); int64(got) != x {
				return nil, fail(fmt.Sprintf("page ids must be dense ascending (got %d)", got))
			}
		case "link":
			err = b.AddLink(int32(x), int32(y))
		case "ext":
			err = b.AddExternalLinks(int32(x), int(y))
		default:
			return nil, fail("unknown directive")
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("webgraph: reading text graph: %w", err)
	}
	return b.Build(), nil
}
