// Command ccimg inspects and verifies checkpoint stores — the restart
// analog of `file`/`readelf` for MANA checkpoints.
//
//	ccimg info [-v] [-json] <store-dir>  epoch chain summary from the manifests;
//	                                     -v: shard tables, and the newest
//	                                     epoch decoded for the job's park
//	                                     census and p2p drain (-json: the same,
//	                                     machine-readable, for scripts)
//	ccimg verify <store-dir>             per-shard integrity check, chain
//	                                     reference resolution (exit 1 on fault)
//	ccimg extract -rank N [-epoch E] [-o out.raw] <store-dir>
//	                                     decode one rank's shard without the job
//	                                     (-o: and write its raw stream)
//	ccimg gc -keep N <store-dir>         delete dead epochs (liveness traced
//	                                     through shard references) and sweep
//	                                     aborted-commit debris
//	ccimg compact [-epoch E] <store-dir> rewrite an epoch's chain into a fresh
//	                                     self-contained epoch (then gc -keep 1
//	                                     reclaims the old chain)
//
// Bare `ccimg [-v] <store-dir>` is shorthand for `ccimg info`. The directory
// holds one epoch per capture, incremental shard references resolved through
// the chain; a regular file is refused as not a store directory.
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

// openTarget opens the single path argument as the store directory it
// must be: a missing path is an error, not a new store.
func openTarget(fs *flag.FlagSet, usage string) (string, ckpt.Store, error) {
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage:", usage)
		os.Exit(2)
	}
	path := fs.Arg(0)
	if _, err := os.Stat(path); err != nil {
		return "", nil, err
	}
	store, err := ckpt.NewFileStore(path)
	return path, store, err
}

func runInfo(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	verbose := fs.Bool("v", false, "per-rank detail, and the newest epoch's park census and p2p drain")
	asJSON := fs.Bool("json", false, "machine-readable manifest/chain output")
	fs.Parse(args)
	path, store, err := openTarget(fs, "ccimg info [-v] [-json] <store-dir>")
	if err != nil {
		return err
	}
	var job *jobSummary
	if *verbose {
		epochs, err := store.Epochs()
		if err != nil {
			return err
		}
		if len(epochs) > 0 {
			if job, err = summarize(store, epochs[len(epochs)-1]); err != nil {
				return err
			}
		}
	}
	if *asJSON {
		return storeInfoJSON(w, store, path, job)
	}
	if err := storeInfo(w, store, path, *verbose); err != nil {
		return err
	}
	if job != nil {
		fmt.Fprintln(w)
		job.print(w)
	}
	return nil
}

// jobSummary is what only decoded shards can tell about an epoch: where the
// ranks were parked and what the p2p drain carried. `info -v` takes it of
// the newest epoch; the chain itself is summarized from manifests alone.
type jobSummary struct {
	epoch                                 int
	img                                   *ckpt.JobImage
	parks                                 map[ckpt.ParkKind]int
	inflight, inflightBytes, pendingRecvs int
}

// summarize decodes one epoch and takes its census.
func summarize(store ckpt.Store, epoch int) (*jobSummary, error) {
	img, err := ckpt.LoadJobImage(store, epoch)
	if err != nil {
		return nil, err
	}
	job := &jobSummary{epoch: epoch, img: img, parks: map[ckpt.ParkKind]int{}}
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

// print renders the census, then every rank's decoded descriptor.
func (job *jobSummary) print(w io.Writer) {
	img := job.img
	fmt.Fprintf(w, "epoch %d, decoded:\n", job.epoch)
	fmt.Fprintf(w, "  algorithm:   %s\n", img.Algorithm)
	fmt.Fprintf(w, "  ranks:       %d (%d per node, %d nodes)\n",
		img.Ranks, img.PPN, (img.Ranks+img.PPN-1)/img.PPN)
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
	for i := range img.Images {
		printRank(w, &img.Images[i])
	}
}

func printRank(w io.Writer, ri *ckpt.RankImage) {
	fmt.Fprintf(w, "rank %4d: park=%-14s app=%dB proto=%dB clock=%.6fs\n",
		ri.Rank, ri.Desc.Kind, len(ri.App), len(ri.Proto), ri.ClockVT)
	if ri.Desc.Coll != nil {
		c := ri.Desc.Coll
		if c.Bench {
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

// censusJSON is jobSummary's -json rendering.
type censusJSON struct {
	Epoch            int            `json:"epoch"`
	TotalBytes       int64          `json:"total_bytes"`
	Parks            map[string]int `json:"parks"`
	InflightMessages int            `json:"inflight_messages"`
	InflightBytes    int            `json:"inflight_bytes"`
	PendingRecvs     int            `json:"pending_recvs"`
}

type infoJSON struct {
	Kind   string      `json:"kind"` // always "store"
	Path   string      `json:"path"`
	Census *censusJSON `json:"census,omitempty"` // -v only
	Epochs []epochJSON `json:"epochs,omitempty"`
}

// storeInfoJSON renders a store's whole epoch chain machine-readably, with
// the newest epoch's census when job is non-nil.
func storeInfoJSON(w io.Writer, store ckpt.Store, path string, job *jobSummary) error {
	epochs, err := store.Epochs()
	if err != nil {
		return err
	}
	out := infoJSON{Kind: "store", Path: path, Epochs: []epochJSON{}}
	if job != nil {
		out.Census = &censusJSON{Epoch: job.epoch, TotalBytes: job.img.TotalBytes(), Parks: map[string]int{},
			InflightMessages: job.inflight, InflightBytes: job.inflightBytes, PendingRecvs: job.pendingRecvs}
		for k, n := range job.parks {
			out.Census.Parks[k.String()] = n
		}
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
	path, store, err := openTarget(fs, "ccimg verify <store-dir>")
	if err != nil {
		return err
	}
	epochs, err := store.Epochs()
	if err != nil {
		return err
	}
	faults, err := ckpt.VerifyStore(store)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d sealed epochs\n", path, len(epochs))
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
	path, store, err := openTarget(fs, "ccimg gc [-keep N] <store-dir>")
	if err != nil {
		return err
	}
	st, err := ckpt.GCStore(store, *keep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: kept epochs %v\n", path, st.LiveEpochs)
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
	path, store, err := openTarget(fs, "ccimg compact [-epoch E] <store-dir>")
	if err != nil {
		return err
	}
	e := *epoch
	if e < 0 {
		if e, err = ckpt.LatestEpoch(store); err != nil {
			return err
		}
	}
	man, st, err := ckpt.CompactChain(store, e, nil)
	if err != nil {
		return err
	}
	if st == nil {
		fmt.Fprintf(w, "%s: epoch %d is already self-contained, nothing to do\n", path, e)
		return nil
	}
	fmt.Fprintf(w, "%s: compacted epoch %d into self-contained epoch %d (%d shards, %d bytes)\n",
		path, e, man.Epoch, st.FreshShards, st.FreshBytes)
	fmt.Fprintf(w, "run `ccimg gc -keep 1 %s` to reclaim the old chain\n", path)
	return nil
}

func runExtract(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	rank := fs.Int("rank", 0, "rank whose shard to extract")
	epoch := fs.Int("epoch", -1, "store epoch to extract from (-1 = latest)")
	out := fs.String("o", "", "write the rank's raw stream (internal/ckpt/FORMAT.md, RawSum's bytes) to this file")
	fs.Parse(args)
	_, store, err := openTarget(fs, "ccimg extract -rank N [-epoch E] [-o out] <store-dir>")
	if err != nil {
		return err
	}
	e := *epoch
	if e < 0 {
		if e, err = ckpt.LatestEpoch(store); err != nil {
			return err
		}
	}
	ri, err := ckpt.ExtractRankFromStore(store, e, *rank)
	if err != nil {
		return err
	}
	printRank(w, ri)
	if *out != "" {
		raw, err := ckpt.ExtractRawFromStore(store, e, *rank)
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
