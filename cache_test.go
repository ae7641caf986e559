package eba_test

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"testing"

	eba "repro"
)

// TestOpenResultCache covers the four -cache/-cache-url combinations:
// nothing set yields no store, a directory alone the on-disk store, a
// URL alone the server client, and both the directory tiered over the
// server, with puts landing in both tiers.
func TestOpenResultCache(t *testing.T) {
	const key = "0123abcd/run/4567ef89"
	val := []byte(`{"pattern":"x"}`)

	remote, err := eba.OpenCache(filepath.Join(t.TempDir(), "remote"))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	srv := httptest.NewServer(eba.NewCacheServer(remote))
	defer srv.Close()

	open := func(dir, url string) (eba.ResultCache, func() error) {
		t.Helper()
		store, closeStore, err := eba.OpenResultCache(dir, url)
		if err != nil {
			t.Fatalf("OpenResultCache(%q, %q): %v", dir, url, err)
		}
		if closeStore == nil {
			t.Fatalf("OpenResultCache(%q, %q): nil close function", dir, url)
		}
		return store, closeStore
	}

	t.Run("none", func(t *testing.T) {
		store, closeStore := open("", "")
		if store != nil {
			t.Fatalf("store = %T, want nil", store)
		}
		if err := closeStore(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("dir", func(t *testing.T) {
		dir := t.TempDir()
		store, closeStore := open(dir, "")
		if _, ok := store.(*eba.Cache); !ok {
			t.Fatalf("store = %T, want *eba.Cache", store)
		}
		if err := store.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if err := closeStore(); err != nil {
			t.Fatal(err)
		}
		reopened, err := eba.OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		if got, ok := reopened.Get(key); !ok || !bytes.Equal(got, val) {
			t.Fatalf("directory store lost the entry: %q, %v", got, ok)
		}
	})

	t.Run("url", func(t *testing.T) {
		store, closeStore := open("", srv.URL)
		defer closeStore()
		if _, ok := store.(*eba.CacheClient); !ok {
			t.Fatalf("store = %T, want *eba.CacheClient", store)
		}
		if err := store.Put(key+"0", val); err != nil {
			t.Fatal(err)
		}
		if got, ok := remote.Get(key + "0"); !ok || !bytes.Equal(got, val) {
			t.Fatalf("server did not receive the entry: %q, %v", got, ok)
		}
	})

	t.Run("tiered", func(t *testing.T) {
		dir := t.TempDir()
		store, closeStore := open(dir, srv.URL)
		if _, ok := store.(*eba.TieredCache); !ok {
			t.Fatalf("store = %T, want *eba.TieredCache", store)
		}
		if err := store.Put(key+"1", val); err != nil {
			t.Fatal(err)
		}
		if err := closeStore(); err != nil {
			t.Fatal(err)
		}
		if got, ok := remote.Get(key + "1"); !ok || !bytes.Equal(got, val) {
			t.Fatalf("server tier did not receive the entry: %q, %v", got, ok)
		}
		local, err := eba.OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer local.Close()
		if got, ok := local.Get(key + "1"); !ok || !bytes.Equal(got, val) {
			t.Fatalf("directory tier did not receive the entry: %q, %v", got, ok)
		}
	})
}
