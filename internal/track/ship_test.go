package track

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mixedclock/internal/tlog"
)

// TestShipperRoundTrip: ship incrementally, resume from the cursor, and end
// with a destination directory that is itself openable with identical
// replay.
func TestShipperRoundTrip(t *testing.T) {
	src := t.TempDir()
	dst := filepath.Join(t.TempDir(), "mirror")
	tr, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	th, ob := tr.NewThread("t0"), tr.NewObject("o0")
	for i := 0; i < 10; i++ {
		th.Write(ob, nil)
	}
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}

	sh := &Shipper{Src: src, Dst: dst}
	rep, err := sh.ConsumeUpTo(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SealedEvents != 10 || rep.ShippedEvents != 0 {
		t.Errorf("report %+v, want sealed 10 shipped 0", rep)
	}
	if len(rep.Copied) == 0 {
		t.Fatal("first pass copied nothing")
	}
	// The cursor landed in Src.
	cf, err := os.Open(filepath.Join(src, tlog.ShipCursorFileName))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := tlog.DecodeShipCursor(cf)
	cf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cur.ShippedEvents != 10 || cur.Generation != rep.Generation {
		t.Errorf("cursor %+v disagrees with report %+v", cur, rep)
	}

	// More history, second incremental pass: only the new segment copies.
	for i := 0; i < 10; i++ {
		th.Write(ob, nil)
	}
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	rep2, err := sh.ConsumeUpTo(rep.Generation + 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ShippedEvents != 10 {
		t.Errorf("second pass started at %d, want 10", rep2.ShippedEvents)
	}
	if len(rep2.Copied) != 1 {
		t.Errorf("second pass copied %v, want just the new segment", rep2.Copied)
	}

	// Asking beyond the published generation reports ErrCatalogBehind.
	if _, err := sh.ConsumeUpTo(rep2.Generation + 100); !errors.Is(err, ErrCatalogBehind) {
		t.Errorf("future generation: %v, want ErrCatalogBehind", err)
	}

	var want bytes.Buffer
	if err := tr.SnapshotTo(&want); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// The mirror is self-describing: Open(dst) replays the shipped history.
	re, err := Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Err(); err != nil {
		t.Fatalf("opening the mirror: %v", err)
	}
	var got bytes.Buffer
	if err := re.SnapshotTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("mirror replay differs from source")
	}
}

// TestShipperVerifiesCopies: a source segment that disagrees with its
// catalog hash fails the ship instead of propagating corruption.
func TestShipperVerifiesCopies(t *testing.T) {
	src := t.TempDir()
	tr, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	th, ob := tr.NewThread("t0"), tr.NewObject("o0")
	for i := 0; i < 5; i++ {
		th.Write(ob, nil)
	}
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(src, tr.Catalog().Segments[0].Path)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(seg, data, 0o666); err != nil {
		t.Fatal(err)
	}
	sh := &Shipper{Src: src, Dst: t.TempDir()}
	if _, err := sh.ConsumeUpTo(0); err == nil {
		t.Fatal("shipped a segment whose hash disagrees with the catalog")
	}
	// The cursor must not have advanced past the failure.
	if _, err := os.Stat(filepath.Join(src, tlog.ShipCursorFileName)); !os.IsNotExist(err) {
		t.Error("cursor written despite a failed pass")
	}
}

// TestShipperCursorAheadOfCatalog: a cursor from a future generation (the
// catalog regressed, e.g. restored from backup) is an error, not silent
// re-shipping.
func TestShipperCursorAhead(t *testing.T) {
	src := t.TempDir()
	tr, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	th, ob := tr.NewThread("t0"), tr.NewObject("o0")
	th.Write(ob, nil)
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tlog.EncodeShipCursor(&buf, &tlog.ShipCursor{
		FormatVersion: tlog.ShipCursorFormatVersion,
		Generation:    1 << 40,
		ShippedEvents: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, tlog.ShipCursorFileName), buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	sh := &Shipper{Src: src, Dst: t.TempDir()}
	if _, err := sh.ConsumeUpTo(0); err == nil {
		t.Fatal("accepted a cursor ahead of the catalog")
	}
}
