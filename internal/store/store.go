// Package store defines the resource store behind the WebDAV server: a
// hierarchy of collections and documents, each of which may carry
// arbitrary dead properties.
//
// Two implementations are provided. FSStore reproduces the mod_dav
// layout the paper measured — documents are plain files, collections
// are directories, and each resource that has metadata gets its own
// DBM database file — so the raw data remains directly accessible to
// users, one of the paper's stated goals. MemStore keeps everything in
// memory for tests and micro-benchmarks.
//
// Every operation takes a context.Context as its first parameter, and
// the context means something at every layer: lock waits abort when it
// is done, long DBM scans checkpoint it, and multi-step filesystem
// operations stop between journal steps. A request that is abandoned
// (client disconnect, server deadline) therefore stops consuming the
// store instead of running to completion for nobody.
package store

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path"
	"sort"
	"strings"
	"time"
)

// Errors reported by store implementations.
var (
	ErrNotFound      = errors.New("store: resource not found")
	ErrExists        = errors.New("store: resource already exists")
	ErrNotCollection = errors.New("store: not a collection")
	ErrIsCollection  = errors.New("store: is a collection")
	ErrConflict      = errors.New("store: parent collection does not exist")
	ErrBadPath       = errors.New("store: invalid path")
	// ErrRecovering rejects mutations while crash recovery is still
	// resolving journal intents; the DAV layer maps it to 503 with a
	// Retry-After so clients back off and retry.
	ErrRecovering = errors.New("store: recovering after crash")
)

// ResourceInfo describes one resource.
type ResourceInfo struct {
	Path         string // canonical path, "/"-rooted
	IsCollection bool
	Size         int64
	ModTime      time.Time
	CreateTime   time.Time
	ContentType  string
	ETag         string
}

// Name returns the last path segment (the display name).
func (ri ResourceInfo) Name() string {
	if ri.Path == "/" {
		return "/"
	}
	return path.Base(ri.Path)
}

// Store is the persistence contract the DAV server runs against. All
// paths are canonical per CleanPath. Implementations must be safe for
// concurrent use.
//
// ctx carries the request scope: trace attribution, cancellation, and
// deadlines. Implementations abort early — without leaving partial
// state visible — when ctx is done; the error then wraps ctx.Err().
type Store interface {
	// Stat describes the resource at p.
	Stat(ctx context.Context, p string) (ResourceInfo, error)
	// List returns the members of the collection at p, sorted by path.
	List(ctx context.Context, p string) ([]ResourceInfo, error)
	// Mkcol creates a collection. The parent must exist (ErrConflict
	// otherwise); the path must be free (ErrExists otherwise).
	Mkcol(ctx context.Context, p string) error
	// Put creates or replaces the document at p with the contents of
	// r, recording contentType if non-empty. It reports whether the
	// document was newly created.
	Put(ctx context.Context, p string, r io.Reader, contentType string) (created bool, err error)
	// Get opens the document at p for reading.
	Get(ctx context.Context, p string) (io.ReadCloser, ResourceInfo, error)
	// Delete removes the resource at p and, if it is a collection, its
	// entire subtree, including all properties.
	Delete(ctx context.Context, p string) error

	// PropPut stores the encoded dead property value under name.
	PropPut(ctx context.Context, p string, name xml.Name, value []byte) error
	// PropGet retrieves a dead property value.
	PropGet(ctx context.Context, p string, name xml.Name) ([]byte, bool, error)
	// PropDelete removes a dead property; absent properties are not an
	// error (RFC 2518 treats removing a non-existent property as
	// success).
	PropDelete(ctx context.Context, p string, name xml.Name) error
	// PropNames lists the dead property names on the resource.
	PropNames(ctx context.Context, p string) ([]xml.Name, error)
	// PropAll returns every dead property on the resource.
	PropAll(ctx context.Context, p string) (map[xml.Name][]byte, error)

	// StatWithProps is Stat plus the resource's dead properties in one
	// locked pass — the batched read behind PROPFIND. want selects the
	// properties: nil means every dead property (allprop, propname);
	// otherwise, even when empty, only the properties named in want are
	// read, and a wanted name that is not stored is absent from the
	// map. ResourceInfo is the same either way.
	StatWithProps(ctx context.Context, p string, want []xml.Name) (ResourceInfo, map[xml.Name][]byte, error)
	// ListWithProps is List plus each member's StatWithProps properties
	// in one locked pass over the collection, sorted by path, so a
	// Depth:1 PROPFIND over N members costs one traversal instead of
	// N+1 lookups.
	ListWithProps(ctx context.Context, p string, want []xml.Name) ([]MemberProps, error)
	// CopyTree copies the resource at src to dst, including dead
	// properties, creating dst's resource type to match src. The
	// destination must not already exist (the server resolves
	// Overwrite by deleting first); copying a resource onto or into
	// itself fails with ErrBadPath. Descendant failures abort the
	// copy. The built-in stores hold one multi-path lock for the whole
	// copy — shared on the source subtree, exclusive on the
	// destination — so no writer mutates the source mid-copy and no
	// reader sees a partially built destination.
	CopyTree(ctx context.Context, src, dst string, opts CopyOptions) error
	// Rename moves src to dst atomically; dst must not exist (ErrExists)
	// and its parent must (ErrConflict). MoveTree is the caller-facing
	// MOVE, which falls back to copy+delete when Rename fails for a
	// reason other than a precondition.
	Rename(ctx context.Context, src, dst string) error

	// Close releases resources held by the store. Close is not
	// request-scoped and must run to completion; it takes no context.
	Close() error
}

// CleanPath canonicalizes a resource path: forces a leading slash,
// removes trailing slashes (except the root), resolves "." and "..",
// and rejects paths that escape the root or contain NUL bytes.
func CleanPath(p string) (string, error) {
	if strings.ContainsRune(p, 0) {
		return "", fmt.Errorf("%w: NUL in %q", ErrBadPath, p)
	}
	if p == "" {
		p = "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	cp := path.Clean(p)
	if cp != "/" && strings.HasSuffix(cp, "/") {
		cp = strings.TrimRight(cp, "/")
	}
	// path.Clean resolves "..", but a path like "/../x" cleans to
	// "/x"; that is acceptable (cannot escape). Reject any remaining
	// ".." (cannot occur after Clean on a rooted path, but keep the
	// guard for defense in depth).
	for _, seg := range strings.Split(cp, "/") {
		if seg == ".." {
			return "", fmt.Errorf("%w: %q escapes root", ErrBadPath, p)
		}
	}
	return cp, nil
}

// ParentPath returns the parent collection path of p ("/" for
// top-level resources and for the root itself).
func ParentPath(p string) string {
	if p == "/" {
		return "/"
	}
	dir := path.Dir(p)
	if dir == "." {
		return "/"
	}
	return dir
}

// IsAncestor reports whether a is a strict ancestor collection of p.
func IsAncestor(a, p string) bool {
	if a == p {
		return false
	}
	if a == "/" {
		return true
	}
	return strings.HasPrefix(p, a+"/")
}

// propKey encodes a property name as a DBM key. Keys are tagged with a
// leading 'P' to separate them from internal bookkeeping keys; XML
// names cannot contain NUL, so it is an unambiguous separator between
// namespace and local name.
func propKey(name xml.Name) []byte {
	return []byte("P" + name.Space + "\x00" + name.Local)
}

// internalKey names a store-internal DBM entry (content type,
// creation date, ...).
func internalKey(name string) []byte { return []byte("I" + name) }

// parsePropKey reverses propKey; non-property keys yield ok=false.
func parsePropKey(key []byte) (xml.Name, bool) {
	s := string(key)
	if !strings.HasPrefix(s, "P") {
		return xml.Name{}, false
	}
	s = s[1:]
	i := strings.IndexByte(s, 0)
	if i < 0 {
		return xml.Name{}, false
	}
	return xml.Name{Space: s[:i], Local: s[i+1:]}, true
}

// Walk visits p and, if it is a collection, every descendant.
// Collections are visited before their members (pre-order). If fn
// returns a non-nil error the walk stops and returns it. The walk
// checkpoints ctx between resources, so a deep traversal aborts
// promptly when the request is abandoned.
func Walk(ctx context.Context, s Store, p string, fn func(ResourceInfo) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ri, err := s.Stat(ctx, p)
	if err != nil {
		return err
	}
	if err := fn(ri); err != nil {
		return err
	}
	if !ri.IsCollection {
		return nil
	}
	members, err := s.List(ctx, p)
	if err != nil {
		return err
	}
	for _, m := range members {
		if err := Walk(ctx, s, m.Path, fn); err != nil {
			return err
		}
	}
	return nil
}

// CopyOptions controls CopyTree.
type CopyOptions struct {
	// Recurse copies collection members (Depth: infinity). When false
	// only the collection resource itself (and its properties) is
	// copied (Depth: 0).
	Recurse bool
}

// SortedPropNames returns props' keys ordered by namespace then local
// name, so property iteration is deterministic.
func SortedPropNames(props map[xml.Name][]byte) []xml.Name {
	names := make([]xml.Name, 0, len(props))
	for n := range props {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if names[i].Space != names[j].Space {
			return names[i].Space < names[j].Space
		}
		return names[i].Local < names[j].Local
	})
	return names
}

// MoveTree moves src to dst through the store's atomic Rename, falling
// back to a recursive copy followed by a recursive delete — the generic
// RFC 2518 semantics.
//
// A rename that fails with a store precondition error (ErrNotFound,
// ErrBadPath) propagates immediately — the copy+delete path would fail
// the same way, and retrying it would only bury the real error. Context
// errors also propagate: the caller abandoned the request, so falling
// back to an expensive copy+delete would be exactly the wasted work
// cancellation exists to avoid. Any other failure (cross-device rename,
// permissions, ...) is logged via slog and falls back to copy+delete,
// so a degraded MOVE is visible in the logs instead of silently slow.
func MoveTree(ctx context.Context, s Store, src, dst string) error {
	err := s.Rename(ctx, src, dst)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrBadPath),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return err
	}
	slog.Warn("store: rename failed; falling back to copy+delete",
		"src", src, "dst", dst, "err", err)
	if err := s.CopyTree(ctx, src, dst, CopyOptions{Recurse: true}); err != nil {
		return err
	}
	return s.Delete(ctx, src)
}

// MemberProps couples one resource's metadata with its dead properties,
// as returned by the batched read path.
type MemberProps struct {
	Info ResourceInfo
	// Props maps property names to their stored encodings; empty (or
	// nil) when the resource carries no dead properties.
	Props map[xml.Name][]byte
}

// SelectProps applies StatWithProps's want rule to a resource's full
// property map: props itself when want is nil, else a new map holding
// only the wanted names that props has.
func SelectProps(props map[xml.Name][]byte, want []xml.Name) map[xml.Name][]byte {
	if want == nil {
		return props
	}
	out := make(map[xml.Name][]byte, len(want))
	for _, name := range want {
		if v, ok := props[name]; ok {
			out[name] = v
		}
	}
	return out
}

// WalkWithProps visits p and, if it is a collection, every descendant,
// pre-order, handing each visit the resource's dead properties as
// selected by want (see StatWithProps). Collections are resolved
// through the batched list path, so a deep walk costs one pass per
// collection rather than one per resource. The walk checkpoints ctx
// between collections.
func WalkWithProps(ctx context.Context, s Store, p string, want []xml.Name, fn func(MemberProps) error) error {
	ri, props, err := s.StatWithProps(ctx, p, want)
	if err != nil {
		return err
	}
	return walkWithProps(ctx, s, MemberProps{Info: ri, Props: props}, want, fn)
}

func walkWithProps(ctx context.Context, s Store, mp MemberProps, want []xml.Name, fn func(MemberProps) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := fn(mp); err != nil {
		return err
	}
	if !mp.Info.IsCollection {
		return nil
	}
	members, err := s.ListWithProps(ctx, mp.Info.Path, want)
	if err != nil {
		return err
	}
	for _, m := range members {
		if err := walkWithProps(ctx, s, m, want, fn); err != nil {
			return err
		}
	}
	return nil
}
