package xmldom_test

import (
	"bytes"
	"encoding/xml"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/davproto"
	"repro/internal/xmldom"
)

// canonicalSeeds builds Marshal outputs covering the shapes stored
// property values take.
func canonicalSeeds() [][]byte {
	var out [][]byte
	add := func(n *xmldom.Node) { out = append(out, xmldom.Marshal(n)) }

	add(xmldom.NewTextElement("ecce:", "formula", "UO2H30O15"))
	add(xmldom.NewTextElement("ecce:", "escapes", `a<b & c>d "q" 'a'`))
	add(xmldom.NewTextElement("ecce:", "space", "line one\nline two\ttabbed\r\n"))
	add(xmldom.NewTextElement("ecce:", "utf8", "Ångström ⌬ 分子 \U0001F9EA"))
	add(xmldom.NewTextElement("", "plain", "empty namespace"))
	add(xmldom.NewTextElement(davproto.NS, "displayname", "in DAV:"))
	add(xmldom.NewElement("ecce:", "empty"))

	attrs := xmldom.NewTextElement("ecce:", "attrs", "v")
	attrs.SetAttr("", "units", `"kcal/mol" & <more>`)
	attrs.SetAttr("urn:x", "kind", "tab\there")
	add(attrs)

	nested := xmldom.NewElement("ecce:", "calc")
	nested.AddText("ecce:", "code", "NWChem")
	geom := nested.Add("urn:geom", "geometry")
	geom.SetAttr("urn:geom", "units", "angstrom")
	geom.AddText("urn:geom", "atom", "U 0 0 0")
	geom.AddText("", "note", "no namespace")
	geom.AddText(davproto.NS, "href", "/calc/1")
	add(nested)
	return out
}

func TestCanonicalAcceptsMarshalOutput(t *testing.T) {
	for _, b := range canonicalSeeds() {
		if !xmldom.Canonical(b) {
			t.Errorf("Canonical rejects Marshal output %s", b)
		}
	}
	// Random trees of random text: Marshal escapes whatever the text
	// holds, so its output is always canonical.
	f := func(text, attr string, depth uint8) bool {
		root := xmldom.NewTextElement("urn:a", "root", text)
		cur := root
		for i := 0; i < int(depth%4); i++ {
			cur = cur.AddText("urn:b", "child", text+attr)
			cur.SetAttr("urn:c", "at", attr)
		}
		return xmldom.Canonical(xmldom.Marshal(root))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalRejects(t *testing.T) {
	for _, s := range []string{
		``,
		` <a/>`,
		`<a/> `,
		`<a/><b/>`,
		`text`,
		`<a>`,
		`<a></b>`,
		`<a><b></a></b>`,
		`<?xml version="1.0"?><a/>`,
		`<!DOCTYPE a><a/>`,
		`<a><!-- c --></a>`,
		`<a><?pi x?></a>`,
		`<a><![CDATA[x]]></a>`,
		`<a xmlns="urn:x"/>`,
		`<p:a/>`,
		`<p:a xmlns:p=""/>`,
		`<a xmlns:p="urn:x" xmlns:p="urn:y"/>`,
		`<a xmlns:p="urn:x" xmlns:q="urn:x"/>`,
		`<a><b xmlns:p="urn:x"/></a>`,
		`<a xml:lang="en"/>`,
		`<a xmlns:xml="urn:x"/>`,
		`<a x="1" x="2"/>`,
		`<a x='1'/>`,
		`<a  x="1"/>`,
		`<a x="1" />`,
		`<a x = "1"/>`,
		`<a x="<"/>`,
		`<a>&quot;</a>`,
		`<a>&apos;</a>`,
		`<a>&#65;</a>`,
		`<a>&foo;</a>`,
		`<a>&amp</a>`,
		"<a>tab\there</a>",
		"<a>line\nbreak</a>",
		"<a>cr\rhere</a>",
		`<a>"</a>`,
		`<a>'</a>`,
		`<a>></a>`,
		"<a>\x01</a>",
		"<a>\xff</a>",
		"<a>\xef\xbf\xbe</a>", // U+FFFE
		"<é/>",
		`<1a/>`,
		`<a:b:c/>`,
		`<a/`,
	} {
		if xmldom.Canonical([]byte(s)) {
			t.Errorf("Canonical accepts %q", s)
		}
	}
}

// sameTree compares two DOM subtrees, ignoring Parent links.
func sameTree(a, b *xmldom.Node) bool {
	if a.Name != b.Name || a.Text != b.Text || !reflect.DeepEqual(a.Attrs, b.Attrs) ||
		len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !sameTree(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// FuzzCanonical checks the promise behind Canonical: a fragment it
// accepts decodes, and spliced verbatim into a multistatus it parses to
// the same property tree it decodes to alone.
func FuzzCanonical(f *testing.F) {
	for _, b := range canonicalSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if !xmldom.Canonical(b) {
			return
		}
		prop, err := davproto.DecodeProperty(b)
		if err != nil {
			t.Fatalf("Canonical accepts %q, but it does not decode: %v", b, err)
		}
		ms := davproto.Multistatus{Responses: []davproto.Response{{
			Href: "/r",
			Propstats: []davproto.Propstat{{
				Props:  []davproto.Property{davproto.NewTextProperty(davproto.NS, "displayname", "r"), davproto.RawProperty(prop.Name(), b)},
				Status: 200,
			}},
		}}}
		body := ms.Marshal()
		got, err := davproto.ParseMultistatus(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("multistatus with %q spliced in does not parse: %v\n%s", b, err, body)
		}
		if len(got.Responses) != 1 || len(got.Responses[0].Propstats) != 1 ||
			len(got.Responses[0].Propstats[0].Props) != 2 {
			t.Fatalf("multistatus with %q spliced in parses to %+v", b, got)
		}
		spliced := got.Responses[0].Propstats[0].Props[1].XML
		if !sameTree(spliced, prop.XML) {
			t.Fatalf("%q spliced parses to %s, alone to %s", b, xmldom.Marshal(spliced), xmldom.Marshal(prop.XML))
		}
		if got.Responses[0].Propstats[0].Props[0].Name() != (xml.Name{Space: davproto.NS, Local: "displayname"}) {
			t.Fatalf("%q spliced in changes its neighbour: %s", b, body)
		}
	})
}

func BenchmarkCanonical(b *testing.B) {
	v := xmldom.Marshal(xmldom.NewTextElement("http://example.org/ecce", "p00", string(bytes.Repeat([]byte("abcdefghijklmnop"), 64))))
	b.SetBytes(int64(len(v)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !xmldom.Canonical(v) {
			b.Fatal("not canonical")
		}
	}
}
