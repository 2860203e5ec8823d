package davproto

import (
	"bytes"
	"encoding/xml"
	"net/http"
	"testing"

	"repro/internal/xmldom"
)

// TestMultistatusMarshalMixedRoundTrip checks the direct encoder on the
// shapes PROPFIND writes: escaped and non-ASCII hrefs, raw properties
// next to DOM ones, 404 propstats and status-only responses.
func TestMultistatusMarshalMixedRoundTrip(t *testing.T) {
	nested := xmldom.NewElement("urn:geom", "geometry")
	nested.SetAttr("", "units", `"Å" & <nm>`)
	nested.AddText("urn:geom", "atom", "U 0 0 0")
	nested.AddText("", "note", "no namespace")
	raw := []Property{
		RawProperty(xml.Name{Space: "ecce:", Local: "formula"},
			NewTextProperty("ecce:", "formula", "UO2 <&> ü").Encode()),
		RawProperty(nested.Name, xmldom.Marshal(nested)),
		RawProperty(xml.Name{Space: NS, Local: "dead"}, NewTextProperty(NS, "dead", "in DAV:").Encode()),
	}
	for _, p := range raw {
		if !xmldom.Canonical(p.Raw) {
			t.Fatalf("test value %s is not canonical", p.Raw)
		}
	}
	want := []*xmldom.Node{
		xmldom.NewTextElement("ecce:", "formula", "UO2 <&> ü"),
		nested,
		xmldom.NewTextElement(NS, "dead", "in DAV:"),
	}
	ms := Multistatus{Responses: []Response{
		{
			Href: "/a&b/<c>/dé ja?x=1&y=2",
			Propstats: []Propstat{
				{Status: http.StatusOK, Props: []Property{
					NewTextProperty(NS, "getetag", `"1-2"`),
					raw[0],
					{XML: xmldom.NewElement(NS, "resourcetype")},
					raw[1],
					raw[2],
				}},
				{Status: http.StatusNotFound, Props: []Property{
					{XML: xmldom.NewElement("ecce:", "missing")},
					{XML: xmldom.NewElement("", "bare")},
				}},
			},
		},
		{Href: "/gone", Status: http.StatusLocked},
		{Href: "/ok"},
		{Href: "/empty", Propstats: []Propstat{{Status: http.StatusOK}}},
	}}
	body := ms.Marshal()
	got, err := ParseMultistatus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("ParseMultistatus: %v\n%s", err, body)
	}
	if len(got.Responses) != 4 {
		t.Fatalf("responses = %d\n%s", len(got.Responses), body)
	}
	r0 := got.Responses[0]
	if r0.Href != ms.Responses[0].Href {
		t.Fatalf("href = %q, want %q", r0.Href, ms.Responses[0].Href)
	}
	if len(r0.Propstats) != 2 || r0.Propstats[0].Status != 200 || r0.Propstats[1].Status != 404 {
		t.Fatalf("propstats = %+v", r0.Propstats)
	}
	ok := r0.Propstats[0].Props
	if len(ok) != 5 {
		t.Fatalf("200 props = %d\n%s", len(ok), body)
	}
	if ok[0].Name() != PropGetETag || ok[0].Text() != `"1-2"` {
		t.Fatalf("getetag = %v %q", ok[0].Name(), ok[0].Text())
	}
	if ok[2].Name() != PropResourceType {
		t.Fatalf("prop 2 = %v, want resourcetype", ok[2].Name())
	}
	for i, k := range []int{1, 3, 4} {
		if g := xmldom.Marshal(ok[k].XML); !bytes.Equal(g, xmldom.Marshal(want[i])) {
			t.Errorf("raw prop %d parses to %s, want %s", k, g, xmldom.Marshal(want[i]))
		}
	}
	missing := r0.Propstats[1].Props
	if len(missing) != 2 || missing[0].Name() != (xml.Name{Space: "ecce:", Local: "missing"}) ||
		missing[1].Name() != (xml.Name{Local: "bare"}) {
		t.Fatalf("404 props = %+v", missing)
	}
	if got.Responses[1].Status != http.StatusLocked || len(got.Responses[1].Propstats) != 0 {
		t.Fatalf("status-only response = %+v", got.Responses[1])
	}
	if got.Responses[2].Status != http.StatusOK {
		t.Fatalf("status-only response without a code = %+v, want 200", got.Responses[2])
	}
	if ps := got.Responses[3].Propstats; len(ps) != 1 || ps[0].Status != 200 || len(ps[0].Props) != 0 {
		t.Fatalf("empty propstat = %+v", ps)
	}
}

func TestRawPropertyAccessors(t *testing.T) {
	name := xml.Name{Space: "ecce:", Local: "formula"}
	enc := NewTextProperty(name.Space, name.Local, "H2O").Encode()
	p := RawProperty(name, enc)
	if p.Name() != name || !bytes.Equal(p.Encode(), enc) {
		t.Fatalf("raw property name %v encoding %s", p.Name(), p.Encode())
	}
}
