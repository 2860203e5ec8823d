package store

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dbm"
)

// TestWithPropsWant checks the want argument of the batched reads: nil
// returns every dead property, any other want exactly the wanted subset
// of PropAll, and the resource info (ETag, ContentType) never depends on
// want, so the internal metadata keys are read either way.
func TestWithPropsWant(t *testing.T) {
	ctx := context.Background()
	eachStore(t, func(t *testing.T, s Store) {
		mustMkcol(t, s, "/c")
		mustPut(t, s, "/c/a.txt", "first")
		mustPut(t, s, "/c/a.txt", "second") // generation > 0 in FSStore
		if _, err := s.Put(ctx, "/c/b.dat", strings.NewReader("x"), "chemical/x-xyz"); err != nil {
			t.Fatal(err)
		}
		mustPut(t, s, "/c/bare", "no props")
		name := func(i int) xml.Name { return xml.Name{Space: "ecce:", Local: fmt.Sprintf("p%d", i)} }
		for _, p := range []string{"/c", "/c/a.txt", "/c/b.dat"} {
			for i := 0; i < 6; i++ {
				if err := s.PropPut(ctx, p, name(i), []byte(fmt.Sprintf("<v>%s %d</v>", p, i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		absent := xml.Name{Space: "other:", Local: "p1"}
		wants := map[string][]xml.Name{
			"nil":     nil,
			"empty":   {},
			"subset":  {name(4), name(1)},
			"missing": {absent, {Space: "ecce:", Local: "nope"}},
			"mixed":   {name(0), absent, name(5)},
		}
		for label, want := range wants {
			// check compares one batched read with PropAll and with the
			// nil-want read of the same resource.
			check := func(ri ResourceInfo, props map[xml.Name][]byte, base ResourceInfo) {
				t.Helper()
				all, err := s.PropAll(ctx, ri.Path)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ri, base) {
					t.Errorf("%s: %s info = %+v, with nil want %+v", label, ri.Path, ri, base)
				}
				if wantProps := SelectProps(all, want); !reflect.DeepEqual(props, wantProps) {
					t.Errorf("%s: %s props = %q, want %q", label, ri.Path, props, wantProps)
				}
			}
			for _, p := range []string{"/c", "/c/a.txt", "/c/b.dat", "/c/bare"} {
				base, _, err := s.StatWithProps(ctx, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				ri, props, err := s.StatWithProps(ctx, p, want)
				if err != nil {
					t.Fatalf("%s: StatWithProps %s: %v", label, p, err)
				}
				check(ri, props, base)
			}
			base, err := s.ListWithProps(ctx, "/c", nil)
			if err != nil {
				t.Fatal(err)
			}
			members, err := s.ListWithProps(ctx, "/c", want)
			if err != nil {
				t.Fatalf("%s: ListWithProps: %v", label, err)
			}
			if len(members) != len(base) {
				t.Fatalf("%s: ListWithProps = %d members, with nil want %d", label, len(members), len(base))
			}
			for i, m := range members {
				check(m.Info, m.Props, base[i].Info)
			}
		}
	})
}

// TestWithPropsReportsCorruptDatabase checks that the batched reads fail
// on a property database that cannot be opened, as PropAll does, instead
// of answering with no properties.
func TestWithPropsReportsCorruptDatabase(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustMkcol(t, s, "/c")
	mustPut(t, s, "/c/doc", "x")
	meta := filepath.Join(dir, "c", MetaDirName)
	if err := os.MkdirAll(meta, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(meta, "doc"+PropsExt), []byte(strings.Repeat("not a dbm file ", 64)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PropAll(ctx, "/c/doc"); !errors.Is(err, dbm.ErrCorrupt) {
		t.Fatalf("PropAll err = %v, want ErrCorrupt", err)
	}
	for _, want := range [][]xml.Name{nil, {}, {{Space: "ecce:", Local: "p"}}} {
		if _, props, err := s.StatWithProps(ctx, "/c/doc", want); !errors.Is(err, dbm.ErrCorrupt) {
			t.Errorf("StatWithProps(want=%v) = %v, %v; want ErrCorrupt", want, props, err)
		}
		if members, err := s.ListWithProps(ctx, "/c", want); !errors.Is(err, dbm.ErrCorrupt) {
			t.Errorf("ListWithProps(want=%v) = %v, %v; want ErrCorrupt", want, members, err)
		}
	}
}
