package main

import (
	"reflect"
	"strings"
	"testing"
)

// Every -peers entry names a real other ranker: an index that wraps in
// int32, lies outside [0, k), is this ranker's own or repeats an
// earlier entry's is refused, and the error names each bad entry.
func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    string
		want    []peerAddr
		wantBad []string // entries the error must name; nil means accepted
	}{
		{name: "empty", spec: ""},
		{
			name: "two peers",
			spec: "1=host1:7000, 2=host2:7000",
			want: []peerAddr{{1, "host1:7000"}, {2, "host2:7000"}},
		},
		{name: "wraps in int32", spec: "4294967297=host:7000", wantBad: []string{"4294967297=host:7000"}},
		{name: "negative", spec: "-1=host:7000", wantBad: []string{"-1=host:7000"}},
		{name: "past k", spec: "3=host:7000", wantBad: []string{"3=host:7000"}},
		{name: "self", spec: "0=host:7000", wantBad: []string{"0=host:7000"}},
		{name: "repeated", spec: "1=a:1,1=b:2", wantBad: []string{"1=b:2"}},
		{name: "no address", spec: "1", wantBad: []string{`"1"`}},
		{name: "empty address", spec: "1=", wantBad: []string{"1="}},
		{name: "not a number", spec: "x=host:7000", wantBad: []string{"x=host:7000"}},
		{
			name:    "every bad entry named",
			spec:    "5=a:1,1=b:1,0=c:1,2=d:1",
			wantBad: []string{"5=a:1", "0=c:1"},
		},
	} {
		got, err := parsePeers(tc.spec, 0, 3)
		if tc.wantBad == nil {
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s: parsePeers(%q) = %v, %v; want %v", tc.name, tc.spec, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: parsePeers(%q) accepted: %v", tc.name, tc.spec, got)
			continue
		}
		for _, entry := range tc.wantBad {
			if !strings.Contains(err.Error(), entry) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, entry)
			}
		}
	}
}
