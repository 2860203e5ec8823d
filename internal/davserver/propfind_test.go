package davserver

import (
	"context"
	"encoding/xml"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/davproto"
	"repro/internal/dbm"
	"repro/internal/store"
)

// corruptPropsServer serves a store holding /c/doc whose property
// database is not a DBM file.
func corruptPropsServer(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := store.NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(s, nil))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	wantStatus(t, do(t, "MKCOL", srv.URL+"/c", nil, ""), 201)
	wantStatus(t, do(t, "PUT", srv.URL+"/c/doc", nil, "x"), 201)
	meta := filepath.Join(dir, "c", store.MetaDirName)
	if err := os.MkdirAll(meta, 0o755); err != nil {
		t.Fatal(err)
	}
	junk := []byte(strings.Repeat("not a dbm file ", 64))
	if err := os.WriteFile(filepath.Join(meta, "doc"+store.PropsExt), junk, 0o644); err != nil {
		t.Fatal(err)
	}
	return srv.URL
}

func TestPropfindDepth0CorruptPropsIs500(t *testing.T) {
	srv := corruptPropsServer(t)
	for _, body := range []string{"", propfindBody("a")} {
		wantStatus(t, do(t, "PROPFIND", srv+"/c/doc", map[string]string{"Depth": "0"}, body), 500)
	}
}

func TestPropfindDepth1CorruptPropsIs500(t *testing.T) {
	srv := corruptPropsServer(t)
	for _, body := range []string{"", propfindBody("a")} {
		wantStatus(t, do(t, "PROPFIND", srv+"/c", map[string]string{"Depth": "1"}, body), 500)
	}
}

// TestPropfindPropnameWritesNoValue checks that propname answers with
// names only, whatever form the stored values are in.
func TestPropfindPropnameWritesNoValue(t *testing.T) {
	srv, h := newTestServer(t, nil)
	do(t, "MKCOL", srv.URL+"/c", nil, "")
	do(t, "PUT", srv.URL+"/c/doc", nil, "x")
	do(t, "PROPPATCH", srv.URL+"/c/doc", nil, proppatchBody(map[string]string{"canon": "secret-canonical"}))
	// Stored values that are not in canonical form: decodable, and not.
	st := h.Store()
	ctx := context.Background()
	if err := st.PropPut(ctx, "/c/doc", xml.Name{Space: "e:", Local: "loose"},
		[]byte("<e:loose xmlns:e='e:'>secret-loose<!-- c --></e:loose>")); err != nil {
		t.Fatal(err)
	}
	if err := st.PropPut(ctx, "/c/doc", xml.Name{Space: "e:", Local: "broken"}, []byte("<secret-broken")); err != nil {
		t.Fatal(err)
	}
	body := `<D:propfind xmlns:D="DAV:"><D:propname/></D:propfind>`
	for _, depth := range []string{"0", "1"} {
		target := srv.URL + "/c/doc"
		if depth == "1" {
			target = srv.URL + "/c"
		}
		resp := do(t, "PROPFIND", target, map[string]string{"Depth": depth}, body)
		wantStatus(t, resp, 207)
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(raw), "secret") {
			t.Fatalf("Depth %s propname wrote a stored value:\n%s", depth, raw)
		}
		ms, err := davproto.ParseMultistatus(strings.NewReader(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		var names map[xml.Name]davproto.Property
		for _, r := range ms.Responses {
			if r.Href == "/c/doc" {
				names = davproto.PropsByName(r.Propstats)
			}
		}
		for _, n := range []xml.Name{{Space: "ecce:", Local: "canon"}, {Space: "e:", Local: "loose"}, davproto.PropGetETag} {
			if _, ok := names[n]; !ok {
				t.Errorf("Depth %s propname lacks %v: %s", depth, n, raw)
			}
		}
	}
}
