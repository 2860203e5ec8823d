package xmldom

import (
	"bytes"
	"unicode/utf8"
)

// Canonical reports whether b is a fragment in the narrow form MarshalTo
// writes, which means the same thing spliced verbatim into an enclosing
// document as it means alone. A server can then copy a stored fragment
// into a response without parsing it.
//
// The grammar is:
//
//   - one element and nothing before or after it;
//   - ASCII names, NCName with at most one prefix;
//   - a single space before each attribute, attribute values in double
//     quotes, no space before ">" or "/>";
//   - namespace declarations of the form xmlns:p="uri" only on the
//     root, with a non-empty uri, no prefix or uri bound twice, and
//     every prefix used anywhere in the fragment declared there (so
//     the fragment never reads a binding from its surroundings and
//     never declares a default namespace);
//   - character data and attribute values that hold legal XML
//     characters in valid UTF-8, apart from the ones EscapeText
//     escapes, plus only the references EscapeText writes: &amp;
//     &lt; &gt; &#34; &#39; &#x9; &#xA; &#xD;;
//   - no comments, processing instructions, CDATA or doctype.
//
// Because each character has exactly one spelling, two names or values
// are equal exactly when their bytes are equal.
//
// Canonical does not allocate for fragments nested up to 16 deep. It
// reports false for a root with more than 8 namespace declarations or
// an element with more than 15 attributes: legal, but rare enough to
// leave to the parsing path.
func Canonical(b []byte) bool {
	s := canonScanner{b: b}
	open := make([][]byte, 0, 16)
	for {
		name, empty, ok := s.startTag()
		if !ok {
			return false
		}
		if !empty {
			open = append(open, name)
		}
		for {
			if len(open) == 0 {
				return s.i == len(s.b)
			}
			if !s.chars('<') {
				return false
			}
			if !bytes.HasPrefix(s.b[s.i:], []byte("</")) {
				break // a child element starts here
			}
			s.i += 2
			end, ok := s.qname()
			if !ok || !bytes.Equal(end, open[len(open)-1]) || !s.lit('>') {
				return false
			}
			open = open[:len(open)-1]
		}
	}
}

// canonScanner is Canonical's cursor. Its tables are arrays, not
// slices, so that the scanner lives on the caller's stack.
type canonScanner struct {
	b      []byte
	i      int
	decls  [8][2][]byte // root declarations: prefix, namespace (escaped)
	ndecls int
	names  [16][]byte // qualified names of the current start tag
	nnames int
}

// startTag reads one start tag, checking its attributes and that every
// prefix it uses is declared on the root.
func (s *canonScanner) startTag() (name []byte, empty, ok bool) {
	root := s.i == 0
	if !s.lit('<') {
		return nil, false, false
	}
	if name, ok = s.qname(); !ok {
		return nil, false, false
	}
	s.names[0], s.nnames = name, 1
	for {
		switch {
		case s.lit('>'):
			return name, false, s.prefixesDeclared()
		case bytes.HasPrefix(s.b[s.i:], []byte("/>")):
			s.i += 2
			return name, true, s.prefixesDeclared()
		case !s.lit(' '):
			return nil, false, false
		}
		attr, ok := s.qname()
		if !ok || !s.lit('=') || !s.lit('"') {
			return nil, false, false
		}
		start := s.i
		if !s.chars('"') {
			return nil, false, false
		}
		value := s.b[start:s.i]
		s.i++ // closing quote
		for _, seen := range s.names[1:s.nnames] {
			if bytes.Equal(seen, attr) {
				return nil, false, false
			}
		}
		prefix, local := splitQName(attr)
		switch {
		case string(prefix) == "xmlns":
			if !root || !s.declare(local, value) {
				return nil, false, false
			}
		case prefix == nil && string(local) == "xmlns":
			return nil, false, false // default namespace
		default:
			if s.nnames == len(s.names) {
				return nil, false, false
			}
			s.names[s.nnames] = attr
			s.nnames++
		}
	}
}

// declare records a root namespace declaration.
func (s *canonScanner) declare(prefix, space []byte) bool {
	if len(space) == 0 || string(prefix) == "xml" || string(prefix) == "xmlns" {
		return false
	}
	if s.ndecls == len(s.decls) {
		return false
	}
	for _, d := range s.decls[:s.ndecls] {
		if bytes.Equal(d[0], prefix) || bytes.Equal(d[1], space) {
			return false
		}
	}
	s.decls[s.ndecls] = [2][]byte{prefix, space}
	s.ndecls++
	return true
}

// prefixesDeclared checks the prefixes of the current tag's names.
func (s *canonScanner) prefixesDeclared() bool {
	for _, n := range s.names[:s.nnames] {
		prefix, _ := splitQName(n)
		if prefix == nil {
			continue
		}
		found := false
		for _, d := range s.decls[:s.ndecls] {
			if bytes.Equal(d[0], prefix) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// lit consumes c if it is next.
func (s *canonScanner) lit(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// qname reads NCName or NCName:NCName.
func (s *canonScanner) qname() ([]byte, bool) {
	start := s.i
	if !s.ncname() {
		return nil, false
	}
	if s.lit(':') && !s.ncname() {
		return nil, false
	}
	return s.b[start:s.i], true
}

func (s *canonScanner) ncname() bool {
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case s.i > start && (c >= '0' && c <= '9' || c == '-' || c == '.'):
		default:
			return s.i > start
		}
		s.i++
	}
	return s.i > start
}

// splitQName splits a name read by qname at its colon; prefix is nil
// for an unprefixed name.
func splitQName(n []byte) (prefix, local []byte) {
	if i := bytes.IndexByte(n, ':'); i >= 0 {
		return n[:i], n[i+1:]
	}
	return nil, n
}

// escapeRefs are the references EscapeText writes.
var escapeRefs = [][]byte{
	[]byte("&amp;"), []byte("&lt;"), []byte("&gt;"), []byte("&#34;"),
	[]byte("&#39;"), []byte("&#x9;"), []byte("&#xA;"), []byte("&#xD;"),
}

// plainByte marks the ASCII bytes that stand for themselves in
// character data: everything EscapeText leaves alone.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `<>&"'` {
		t[c] = false
	}
	return t
}()

// chars reads character data up to (not past) stop, which must follow:
// '<' for element content, '"' for an attribute value. It fails on
// anything EscapeText would have escaped, on other references, and on
// characters XML does not allow.
func (s *canonScanner) chars(stop byte) bool {
	b, i := s.b, s.i
	for i < len(b) {
		c := b[i]
		if plainByte[c] {
			i++
			continue
		}
		switch {
		case c == stop:
			s.i = i
			return true
		case c == '&':
			n := 0
			for _, ref := range escapeRefs {
				if bytes.HasPrefix(b[i:], ref) {
					n = len(ref)
					break
				}
			}
			if n == 0 {
				return false
			}
			i += n
		case c < utf8.RuneSelf:
			return false
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 || !legalChar(r) {
				return false
			}
			i += size
		}
	}
	return false
}

// legalChar reports whether r is a Char in the XML 1.0 grammar, leaving
// out tab, newline and carriage return, which EscapeText escapes.
func legalChar(r rune) bool {
	return r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}
