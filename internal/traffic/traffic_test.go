package traffic

import "testing"

func TestStrings(t *testing.T) {
	want := map[HG]string{Google: "Google", Netflix: "Netflix", Meta: "Meta", Akamai: "Akamai", HG(9): "HG(?)"}
	for h, s := range want {
		if h.String() != s {
			t.Errorf("String(%d) = %q want %q", int(h), h.String(), s)
		}
	}
}

func TestAllOrderMatchesTable1(t *testing.T) {
	if len(All) != int(NumHG) {
		t.Fatalf("All has %d entries, want %d", len(All), NumHG)
	}
	if All[0] != Google || All[1] != Netflix || All[2] != Meta || All[3] != Akamai {
		t.Error("All must follow Table 1 order: Google, Netflix, Meta, Akamai")
	}
}
