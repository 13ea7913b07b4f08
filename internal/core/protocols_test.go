package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestProtocolHomeTablesStable pins the ids, canonical names, aliases and
// listing order of every protocol and home policy: they are API
// (Params.Protocol and Params.Home values, CLI flags, archived reports),
// so a table edit that renumbers, renames or drops a spelling fails here.
func TestProtocolHomeTablesStable(t *testing.T) {
	protos := []struct {
		id      Protocol
		name    string
		aliases []string
	}{
		{MW, "MW", nil},
		{SW, "SW", nil},
		{WFS, "WFS", nil},
		{WFSWG, "WFS+WG", []string{"WFSWG"}},
		{HLRC, "HLRC", nil},
		{Adaptive, "adaptive", []string{"adapt", "meta"}},
	}
	var names []string
	for i, tc := range protos {
		names = append(names, tc.name)
		if int(tc.id) != i {
			t.Errorf("%s has id %d, want %d", tc.name, int(tc.id), i)
		}
		if got := tc.id.String(); got != tc.name {
			t.Errorf("Protocol(%d).String() = %q, want %q", int(tc.id), got, tc.name)
		}
		if tc.id.Description() == "" {
			t.Errorf("%s has no description", tc.name)
		}
		for _, s := range append([]string{tc.name}, tc.aliases...) {
			for _, spelling := range []string{s, strings.ToLower(s), strings.ToUpper(s)} {
				if got, err := ParseProtocol(spelling); err != nil || got != tc.id {
					t.Errorf("ParseProtocol(%q) = %v, %v; want %v", spelling, got, err, tc.id)
				}
			}
		}
	}
	if got := ProtocolNames(); !reflect.DeepEqual(got, names) {
		t.Errorf("ProtocolNames() = %v, want %v", got, names)
	}
	if got := Protocols(); len(got) != len(protos) {
		t.Errorf("Protocols() = %v, want %d entries", got, len(protos))
	}

	homes := []struct {
		id      Home
		name    string
		aliases []string
	}{
		{HomeStatic, "static", nil},
		{HomeFirstTouch, "first-touch", []string{"firsttouch", "ft"}},
		{HomeBlock, "block", []string{"blocked"}},
	}
	names = nil
	for i, tc := range homes {
		names = append(names, tc.name)
		if int(tc.id) != i {
			t.Errorf("%s has id %d, want %d", tc.name, int(tc.id), i)
		}
		if got := tc.id.String(); got != tc.name {
			t.Errorf("Home(%d).String() = %q, want %q", int(tc.id), got, tc.name)
		}
		if tc.id.Description() == "" {
			t.Errorf("%s has no description", tc.name)
		}
		for _, s := range append([]string{tc.name}, tc.aliases...) {
			if got, err := ParseHome(strings.ToUpper(s)); err != nil || got != tc.id {
				t.Errorf("ParseHome(%q) = %v, %v; want %v", s, got, err, tc.id)
			}
		}
	}
	if got := HomeNames(); !reflect.DeepEqual(got, names) {
		t.Errorf("HomeNames() = %v, want %v", got, names)
	}
	if got := Homes(); len(got) != len(homes) {
		t.Errorf("Homes() = %v, want %d entries", got, len(homes))
	}

	if Protocol(999).String() != "?" || Home(-1).String() != "?" {
		t.Errorf("out-of-range ids should print ?")
	}
}

func TestParseProtocolRoundTrip(t *testing.T) {
	for _, p := range Protocols() {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
		// Case-insensitive.
		got, err = ParseProtocol(strings.ToLower(p.String()))
		if err != nil || got != p {
			t.Errorf("ParseProtocol(lower %q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
}

func TestParseProtocolAliases(t *testing.T) {
	p, err := ParseProtocol("WFSWG")
	if err != nil || p != WFSWG {
		t.Errorf("alias WFSWG: got %v, %v", p, err)
	}
	if _, err := ParseProtocol("nope"); err == nil ||
		!strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("unknown name: got %v", err)
	}
}

func TestRegisteredProtocolListing(t *testing.T) {
	names := ProtocolNames()
	if len(names) != len(Protocols()) {
		t.Fatalf("names/ids length mismatch: %d vs %d", len(names), len(Protocols()))
	}
	want := map[string]bool{"MW": true, "SW": true, "WFS": true, "WFS+WG": true, "HLRC": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing protocols in listing: %v (have %v)", want, names)
	}
}
