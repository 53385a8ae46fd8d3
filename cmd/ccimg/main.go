// Command ccimg inspects and verifies checkpoint images and stores — the
// restart analog of `file`/`readelf` for MANA images.
//
//	ccimg info [-v] [-json] <image|store-dir>
//	                                     epoch chain summary and shard tables;
//	                                     for an image file also the job's park
//	                                     census and p2p drain (-json: the same,
//	                                     machine-readable, for scripts)
//	ccimg verify <image|store-dir>       per-shard integrity check, chain
//	                                     reference resolution (exit 1 on fault)
//	ccimg extract -rank N [-epoch E] [-o out.raw] <image|store-dir>
//	                                     decode one rank's shard without the job
//	                                     (-o: and write its raw stream)
//	ccimg gc -keep N <store-dir>         delete dead epochs (liveness traced
//	                                     through shard references) and sweep
//	                                     aborted-commit debris
//	ccimg compact [-epoch E] <store-dir> rewrite an epoch's chain into a fresh
//	                                     self-contained epoch (then gc -keep 1
//	                                     reclaims the old chain)
//
// Bare `ccimg [-v] <path>` is shorthand for `ccimg info`. Either argument
// names a checkpoint store and every command runs on it as one: a directory
// holds one epoch per capture (incremental shard references resolved through
// the chain), an image file is a single epoch, packed (ckpt.OpenImage).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mana/internal/ckpt"
	"mana/internal/netmodel"
)

func main() {
	run, args := runInfo, os.Args[1:]
	if len(args) > 0 {
		if sub, ok := map[string]func(io.Writer, []string) error{
			"info": runInfo, "verify": runVerify, "extract": runExtract, "gc": runGC, "compact": runCompact,
		}[args[0]]; ok {
			run, args = sub, args[1:]
		}
	}
	if err := run(os.Stdout, args); err != nil {
		fmt.Fprintln(os.Stderr, "ccimg:", err)
		os.Exit(1)
	}
}

// target is the path argument, resolved to the store it names.
type target struct {
	path  string
	store ckpt.Store
	file  bool // a packed image file: one epoch, read-only
}

// readTarget resolves the single path argument: a directory opens as a
// FileStore, a file as the one-epoch store it packs.
func readTarget(fs *flag.FlagSet, usage string) (*target, error) {
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage:", usage)
		os.Exit(2)
	}
	path := fs.Arg(0)
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		store, err := ckpt.NewFileStore(path)
		if err != nil {
			return nil, err
		}
		return &target{path: path, store: store}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	store, err := ckpt.OpenImage(data)
	if err != nil {
		return nil, err
	}
	return &target{path: path, store: store, file: true}, nil
}

func runInfo(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	verbose := fs.Bool("v", false, "per-rank detail")
	asJSON := fs.Bool("json", false, "machine-readable manifest/chain output")
	fs.Parse(args)
	tgt, err := readTarget(fs, "ccimg info [-v] [-json] <image-file|store-dir>")
	if err != nil {
		return err
	}
	var job *jobSummary
	if tgt.file {
		if job, err = summarize(tgt.store); err != nil {
			return err
		}
	}
	if *asJSON {
		return storeInfoJSON(w, tgt.store, tgt.path, job)
	}
	if job != nil {
		job.print(w, tgt.path)
	}
	if err := storeInfo(w, tgt.store, tgt.path, *verbose); err != nil {
		return err
	}
	if job != nil && *verbose {
		fmt.Fprintln(w)
		for i := range job.img.Images {
			printRank(w, &job.img.Images[i])
		}
	}
	return nil
}

// jobSummary is what only decoded shards can tell about an epoch: where the
// ranks were parked and what the p2p drain carried. `info` prints it for an
// image file (a store directory's chain is summarized from manifests alone).
type jobSummary struct {
	img                                   *ckpt.JobImage
	parks                                 map[ckpt.ParkKind]int
	inflight, inflightBytes, pendingRecvs int
}

// summarize decodes the store's newest epoch and takes its census.
func summarize(store ckpt.Store) (*jobSummary, error) {
	epoch, err := ckpt.LatestEpoch(store)
	if err != nil {
		return nil, err
	}
	img, err := ckpt.LoadJobImage(store, epoch)
	if err != nil {
		return nil, err
	}
	job := &jobSummary{img: img, parks: map[ckpt.ParkKind]int{}}
	for i := range img.Images {
		ri := &img.Images[i]
		job.parks[ri.Desc.Kind]++
		job.inflight += len(ri.Inflight)
		for _, m := range ri.Inflight {
			job.inflightBytes += len(m.Data)
		}
		job.pendingRecvs += len(ri.Desc.Recvs)
	}
	return job, nil
}

func (job *jobSummary) print(w io.Writer, path string) {
	img := job.img
	fmt.Fprintf(w, "checkpoint image: %s\n", path)
	fmt.Fprintf(w, "  algorithm:   %s\n", img.Algorithm)
	fmt.Fprintf(w, "  ranks:       %d (%d per node, %d nodes)\n",
		img.Ranks, img.PPN, (img.Ranks+img.PPN-1)/img.PPN)
	fmt.Fprintf(w, "  captured at: vt=%.6fs\n", img.CaptureVT)
	fmt.Fprintf(w, "  total bytes: %d", img.TotalBytes())
	if img.PaddedBytesPerRank > 0 {
		fmt.Fprintf(w, " (padded to %d per rank)", img.PaddedBytesPerRank)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  park kinds:  ")
	for k := ckpt.ParkPreCollective; k <= ckpt.ParkDone; k++ {
		if job.parks[k] > 0 {
			fmt.Fprintf(w, "%s:%d ", k, job.parks[k])
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  p2p drain:   %d in-flight messages (%d bytes), %d pending receives\n",
		job.inflight, job.inflightBytes, job.pendingRecvs)
}

func printRank(w io.Writer, ri *ckpt.RankImage) {
	fmt.Fprintf(w, "rank %4d: park=%-14s app=%dB proto=%dB clock=%.6fs\n",
		ri.Rank, ri.Desc.Kind, len(ri.App), len(ri.Proto), ri.ClockVT)
	if ri.Desc.Coll != nil {
		c := ri.Desc.Coll
		if c.Bench || c.VirtSize > 0 {
			fmt.Fprintf(w, "           pending collective: %v on comm vid %d (root %d, bench size %d)\n",
				netmodel.CollKind(c.Kind), c.CommVID, c.Root, c.VirtSize)
		} else {
			fmt.Fprintf(w, "           pending collective: %v on comm vid %d (root %d, bufs %q/%q)\n",
				netmodel.CollKind(c.Kind), c.CommVID, c.Root, c.InBufID, c.OutBufID)
		}
	}
	for _, rd := range ri.Desc.Recvs {
		fmt.Fprintf(w, "           pending recv: comm vid %d src %d tag %d -> %s[%d:%d]\n",
			rd.CommVID, rd.Src, rd.Tag, rd.BufID, rd.Off, rd.Off+rd.Len)
	}
	for _, m := range ri.Inflight {
		fmt.Fprintf(w, "           in-flight: comm %d from %d tag %d (%d bytes)\n",
			m.CommID, m.SrcComm, m.Tag, len(m.Data))
	}
}

// JSON schema for -json output. Checksums are hex strings: uint64 values
// above 2^53 silently lose precision in JSON consumers that parse numbers
// as float64 (jq, JavaScript), which a checksum must never do.
type shardJSON struct {
	Rank     int     `json:"rank"`
	Size     int64   `json:"size"`
	RawSize  int64   `json:"raw_size"`
	Checksum string  `json:"checksum"`
	RefEpoch *int    `json:"ref_epoch,omitempty"`
	ClockVT  float64 `json:"clock_vt,omitempty"`
	RawSum   string  `json:"raw_sum,omitempty"`

	RawFormat int   `json:"raw_format,omitempty"` // ckpt.RawFormat*: 1 full, 2 and 3 partial
	PageSize  int64 `json:"page_size,omitempty"`
	Pages     int   `json:"pages,omitempty"`  // page-table length
	Chunks    int   `json:"chunks,omitempty"` // chunk-table length

	// Partial entries (page-delta and CDC objects alike): how many of
	// raw_size's logical bytes this object holds itself — its whole stored
	// stream before compression — and the other objects the rest is read
	// from (ckpt.ShardInfo.Sources).
	PartialOwnBytes *int64       `json:"partial_own_bytes,omitempty"`
	Sources         []sourceJSON `json:"sources,omitempty"`
}

type sourceJSON struct {
	Epoch int   `json:"epoch"`
	Rank  int   `json:"rank"`
	Bytes int64 `json:"bytes"`
}

type epochJSON struct {
	Epoch              int         `json:"epoch"`
	Parent             int         `json:"parent"`
	Algorithm          string      `json:"algorithm"`
	Ranks              int         `json:"ranks"`
	PPN                int         `json:"ppn"`
	CaptureVT          float64     `json:"capture_vt"`
	PaddedBytesPerRank int64       `json:"padded_bytes_per_rank,omitempty"`
	FreshShards        int         `json:"fresh_shards"`
	ReusedShards       int         `json:"reused_shards"`
	FreshBytes         int64       `json:"fresh_bytes"`
	ReusedBytes        int64       `json:"reused_bytes"`
	PartialShards      int         `json:"partial_shards,omitempty"` // fresh shards stored as partial objects
	PartialBytes       int64       `json:"partial_bytes,omitempty"`  // their compressed bytes (subset of fresh)
	Shards             []shardJSON `json:"shards"`
}

type infoJSON struct {
	Kind string `json:"kind"` // "image" or "store"
	Path string `json:"path"`
	// An image file's job summary (see jobSummary); its geometry is in its
	// one epoch below.
	TotalBytes       int64          `json:"total_bytes,omitempty"`
	Parks            map[string]int `json:"parks,omitempty"`
	InflightMessages int            `json:"inflight_messages,omitempty"`
	InflightBytes    int            `json:"inflight_bytes,omitempty"`
	PendingRecvs     int            `json:"pending_recvs,omitempty"`
	Epochs           []epochJSON    `json:"epochs,omitempty"`
}

// storeInfoJSON renders a store's whole epoch chain machine-readably, with
// the job summary when the target is an image file (job non-nil).
func storeInfoJSON(w io.Writer, store ckpt.Store, path string, job *jobSummary) error {
	epochs, err := store.Epochs()
	if err != nil {
		return err
	}
	out := infoJSON{Kind: "store", Path: path, Epochs: []epochJSON{}}
	if job != nil {
		out.Kind, out.TotalBytes, out.Parks = "image", job.img.TotalBytes(), map[string]int{}
		for k, n := range job.parks {
			out.Parks[k.String()] = n
		}
		out.InflightMessages, out.InflightBytes, out.PendingRecvs = job.inflight, job.inflightBytes, job.pendingRecvs
	}
	for _, e := range epochs {
		man, err := store.GetManifest(e)
		if err != nil {
			return err
		}
		ej := epochJSON{
			Epoch: man.Epoch, Parent: man.Parent,
			Algorithm: man.Algorithm, Ranks: man.Ranks, PPN: man.PPN,
			CaptureVT:          man.CaptureVT,
			PaddedBytesPerRank: man.PaddedBytesPerRank,
			Shards:             []shardJSON{},
		}
		for _, si := range man.Shards {
			ref := si.RefEpoch
			sj := shardJSON{
				Rank: si.Rank, Size: si.Size, RawSize: si.RawSize,
				Checksum: fmt.Sprintf("%016x", si.Checksum),
				RefEpoch: &ref, ClockVT: si.ClockVT,
				RawSum:    fmt.Sprintf("%016x", si.RawSum),
				RawFormat: si.RawFormat,
				PageSize:  si.PageSize, Pages: len(si.PageSums), Chunks: len(si.Chunks),
			}
			if si.Partial() {
				own, srcs := si.Sources()
				sj.PartialOwnBytes = &own
				for _, s := range srcs {
					sj.Sources = append(sj.Sources, sourceJSON{Epoch: s.Epoch, Rank: s.Rank, Bytes: s.Bytes})
				}
			}
			ej.Shards = append(ej.Shards, sj)
			if si.RefEpoch == man.Epoch {
				ej.FreshShards++
				ej.FreshBytes += si.Size
				if si.Partial() {
					ej.PartialShards++
					ej.PartialBytes += si.Size
				}
			} else {
				ej.ReusedShards++
				ej.ReusedBytes += si.Size
			}
		}
		out.Epochs = append(out.Epochs, ej)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// storeInfo renders a checkpoint store's epoch chain.
func storeInfo(w io.Writer, store ckpt.Store, path string, verbose bool) error {
	epochs, err := store.Epochs()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "checkpoint store: %s (%d sealed epochs)\n", path, len(epochs))
	if len(epochs) == 0 {
		return nil
	}
	fmt.Fprintf(w, "%-7s %-7s %-6s %10s %7s %7s %7s %12s %12s %12s\n",
		"EPOCH", "PARENT", "RANKS", "CAPTURE-VT", "FRESH", "PARTIAL", "REUSED", "FRESH-B", "PARTIAL-B", "REUSED-B")
	for _, e := range epochs {
		man, err := store.GetManifest(e)
		if err != nil {
			return err
		}
		fresh, partial, reused := 0, 0, 0
		var freshB, partialB, reusedB int64
		for _, si := range man.Shards {
			if si.RefEpoch == man.Epoch {
				fresh++
				freshB += si.Size
				if si.Partial() {
					partial++
					partialB += si.Size
				}
			} else {
				reused++
				reusedB += si.Size
			}
		}
		parent := "-"
		if man.Parent >= 0 {
			parent = fmt.Sprint(man.Parent)
		}
		fmt.Fprintf(w, "%-7d %-7s %-6d %9.4fs %7d %7d %7d %12d %12d %12d\n",
			man.Epoch, parent, man.Ranks, man.CaptureVT, fresh, partial, reused, freshB, partialB, reusedB)
		if verbose {
			for _, si := range man.Shards {
				loc := "fresh"
				if si.RefEpoch != man.Epoch {
					loc = fmt.Sprintf("ref epoch %d", si.RefEpoch)
				}
				fmt.Fprintf(w, "    rank %4d: %s, %dB (raw %dB), clock=%.6fs\n",
					si.Rank, loc, si.Size, si.RawSize, si.ClockVT)
				if si.Partial() {
					own, srcs := si.Sources()
					from := make([]string, len(srcs))
					for k, s := range srcs {
						from[k] = fmt.Sprintf("epoch %d rank %d, %d bytes", s.Epoch, s.Rank, s.Bytes)
					}
					fmt.Fprintf(w, "               partial: %d of %d raw bytes stored here; sources: %s\n",
						own, si.RawSize, strings.Join(from, "; "))
				}
			}
		}
	}
	return nil
}

// runVerify checks every sealed epoch's shards (through the reference
// chain) and attributes faults per epoch and rank.
func runVerify(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	fs.Parse(args)
	tgt, err := readTarget(fs, "ccimg verify <image-file|store-dir>")
	if err != nil {
		return err
	}
	epochs, err := tgt.store.Epochs()
	if err != nil {
		return err
	}
	faults, err := ckpt.VerifyStore(tgt.store)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d sealed epochs\n", tgt.path, len(epochs))
	if len(faults) == 0 {
		fmt.Fprintln(w, "all epochs verify: ok")
		return nil
	}
	for _, f := range faults {
		if f.Rank < 0 {
			fmt.Fprintf(w, "epoch %d FAULT: %v\n", f.Epoch, f.Err)
		} else {
			fmt.Fprintf(w, "epoch %d rank %d (bytes in epoch %d) FAULT: %v\n", f.Epoch, f.Rank, f.RefEpoch, f.Err)
		}
	}
	return fmt.Errorf("%d fault(s) in the chain", len(faults))
}

// runGC reclaims a store's dead epochs: everything not reachable from the
// newest -keep sealed manifests through their shard references, plus
// unsealed (aborted-commit) debris.
func runGC(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	keep := fs.Int("keep", 1, "sealed epochs to retain (plus everything they reference)")
	fs.Parse(args)
	tgt, err := readTarget(fs, "ccimg gc [-keep N] <store-dir>")
	if err != nil {
		return err
	}
	if tgt.file {
		return fmt.Errorf("gc needs a store directory, not an image file")
	}
	st, err := ckpt.GCStore(tgt.store, *keep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: kept epochs %v\n", tgt.path, st.LiveEpochs)
	fmt.Fprintf(w, "reclaimed %d bytes: %d dead epoch(s), %d shard(s), %d unsealed debris file(s)\n",
		st.ReclaimedBytes, st.DeletedEpochs, st.DeletedShards, st.SweptObjects)
	return nil
}

// runCompact rewrites one epoch's resolved chain into a fresh
// self-contained epoch (verified byte-identical copies, restart digest
// unchanged); the old chain becomes reclaimable by gc.
func runCompact(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	epoch := fs.Int("epoch", -1, "epoch to compact (-1 = latest)")
	fs.Parse(args)
	tgt, err := readTarget(fs, "ccimg compact [-epoch E] <store-dir>")
	if err != nil {
		return err
	}
	if tgt.file {
		return fmt.Errorf("compact needs a store directory, not an image file")
	}
	e := *epoch
	if e < 0 {
		if e, err = ckpt.LatestEpoch(tgt.store); err != nil {
			return err
		}
	}
	man, st, err := ckpt.CompactChain(tgt.store, e, nil)
	if err != nil {
		return err
	}
	if st == nil {
		fmt.Fprintf(w, "%s: epoch %d is already self-contained, nothing to do\n", tgt.path, e)
		return nil
	}
	fmt.Fprintf(w, "%s: compacted epoch %d into self-contained epoch %d (%d shards, %d bytes)\n",
		tgt.path, e, man.Epoch, st.FreshShards, st.FreshBytes)
	fmt.Fprintf(w, "run `ccimg gc -keep 1 %s` to reclaim the old chain\n", tgt.path)
	return nil
}

func runExtract(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	rank := fs.Int("rank", 0, "rank whose shard to extract")
	epoch := fs.Int("epoch", -1, "store epoch to extract from (-1 = latest)")
	out := fs.String("o", "", "write the rank's raw stream (internal/ckpt/FORMAT.md, RawSum's bytes) to this file")
	fs.Parse(args)
	tgt, err := readTarget(fs, "ccimg extract -rank N [-epoch E] [-o out] <image-file|store-dir>")
	if err != nil {
		return err
	}
	e := *epoch
	if e < 0 {
		if e, err = ckpt.LatestEpoch(tgt.store); err != nil {
			return err
		}
	}
	ri, err := ckpt.ExtractRankFromStore(tgt.store, e, *rank)
	if err != nil {
		return err
	}
	printRank(w, ri)
	if *out != "" {
		raw, err := ckpt.ExtractRawFromStore(tgt.store, e, *rank)
		if err != nil {
			return err
		}
		if err := ckpt.PublishFile(*out, raw); err != nil {
			return fmt.Errorf("writing %s: %w", *out, err)
		}
		fmt.Fprintf(w, "wrote rank %d's %d-byte raw stream to %s\n", *rank, len(raw), *out)
	}
	return nil
}
