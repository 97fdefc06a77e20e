// Command annotate performs the paper's offline analysis step: it renders
// a library clip, profiles its scenes, and writes an annotated container
// stream (.avs) whose header carries the RLE-compressed annotation track.
//
// Usage:
//
//	annotate -clip returnoftheking -o rotk.avs [-w 120 -h 90 -fps 10]
//	         [-scale 0.25] [-gop 10] [-qscale 4] [-threshold 0.10]
//	         [-workers N] [-store-dir /var/lib/streamd]
//	annotate -i footage.y4m -o footage.avs     # annotate real footage
//	annotate -list
//
// Output files are written atomically (temp + fsync + rename), so an
// interrupted run never leaves a torn .avs behind. With -store-dir the
// computed annotation track is also written into the persistent
// artifact store (see internal/annstore) under the clip's content
// digest — the same key a streaming server uses — so an offline
// annotation run pre-warms the serving tier.
//
// Real footage is accepted as C444 YUV4MPEG2 (produce it with
// `ffmpeg -i in.mp4 -pix_fmt yuv444p -f yuv4mpegpipe footage.y4m`).
// Frames are stored uncompensated; the player (or a streaming server)
// applies compensation for the quality level negotiated at playback time.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/annstore"
	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scene"
	"repro/internal/video"
)

func main() {
	clipName := flag.String("clip", "", "library clip to annotate")
	input := flag.String("i", "", "annotate a C444 YUV4MPEG2 file instead of a library clip")
	list := flag.Bool("list", false, "list library clips and exit")
	out := flag.String("o", "", "output .avs path")
	w := flag.Int("w", 120, "frame width")
	h := flag.Int("h", 90, "frame height")
	fps := flag.Int("fps", 10, "frames per second")
	scale := flag.Float64("scale", 0.25, "clip duration scale (1.0 = paper length)")
	gop := flag.Int("gop", 0, "I-frame interval (default: one second)")
	qscale := flag.Int("qscale", 4, "codec quantiser scale (1..31)")
	threshold := flag.Float64("threshold", 0.10, "scene-change threshold (fraction of full scale)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "annotation pipeline and encode workers (<=1 = sequential)")
	storeDir := flag.String("store-dir", "", "also write the annotation track into this persistent artifact store (pre-warms a server's -store-dir)")
	y4mOut := flag.String("y4m", "", "also export the raw clip as YUV4MPEG2 to this path (viewable with mpv/ffplay)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address while annotating")
	flag.Parse()

	ctx := context.Background()
	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		ds, err := obs.ServeDebug(*debugAddr, reg)
		exitOn(err)
		defer ds.Close()
		ctx = obs.WithRegistry(ctx, reg)
		fmt.Printf("debug endpoint on http://%s/metrics\n", ds.Addr())
	}

	if *list {
		for _, name := range video.ClipNames() {
			fmt.Println(name)
		}
		return
	}
	if (*clipName == "" && *input == "") || *out == "" {
		fmt.Fprintln(os.Stderr, "annotate: -o plus one of -clip or -i are required (or -list)")
		os.Exit(2)
	}

	var src core.Source
	var name string
	if *input != "" {
		in, err := os.Open(*input)
		exitOn(err)
		y4m, err := video.ReadY4M(in)
		in.Close()
		exitOn(err)
		src = y4m
		name = *input
	} else {
		opt := video.LibraryOptions{W: *w, H: *h, FPS: *fps, DurationScale: *scale}
		clip := video.ClipByName(*clipName, opt)
		if clip == nil {
			fmt.Fprintf(os.Stderr, "annotate: unknown clip %q (try -list)\n", *clipName)
			os.Exit(2)
		}
		src = core.ClipSource{Clip: clip}
		name = clip.Name
	}
	width, height := src.Size()

	if *y4mOut != "" {
		yf, err := annstore.CreateAtomic(*y4mOut)
		exitOn(err)
		exitOn(video.WriteY4M(yf, src))
		exitOn(yf.Commit())
		fmt.Printf("exported       %s (YUV4MPEG2)\n", *y4mOut)
	}

	cfg := scene.DefaultConfig(src.FPS())
	cfg.Threshold = *threshold
	track, scenes, err := core.AnnotatePipeline(ctx, src, cfg, nil,
		core.AnnotateOptions{Workers: *workers})
	exitOn(err)

	// The container is written through an atomic file: a crash or kill
	// mid-encode leaves the previous *out (or nothing), never a torn
	// stream a player would choke on.
	f, err := annstore.CreateAtomic(*out)
	exitOn(err)
	defer f.Abort()

	cw, err := container.NewWriter(f, container.Header{
		W: width, H: height, FPS: src.FPS(),
		FrameCount:  src.TotalFrames(),
		Annotations: track,
	})
	exitOn(err)

	gopLen := *gop
	if gopLen <= 0 {
		gopLen = src.FPS()
	}
	encSpan := obs.StartSpan(ctx, "annotate.encode")
	frames, err := codec.EncodeGOPs(ctx, width, height, gopLen, *qscale,
		src.TotalFrames(), *workers, src.Frame)
	exitOn(err)
	var bytes int
	for _, ef := range frames {
		exitOn(cw.WriteFrame(ef))
		bytes += ef.Size()
	}
	encSpan.End()
	exitOn(f.Commit())

	if *storeDir != "" {
		st, err := annstore.Open(*storeDir, annstore.Options{})
		exitOn(err)
		dg := core.SourceDigest(src)
		exitOn(st.Put(annstore.Key{Kind: "track", Digest: dg, Quality: -1}, track.Encode()))
		exitOn(st.Close())
		fmt.Printf("store          pre-warmed track %s in %s\n", dg, *storeDir)
	}

	fmt.Printf("clip          %s (%dx%d @ %d fps, %.1fs)\n",
		name, width, height, src.FPS(), float64(src.TotalFrames())/float64(src.FPS()))
	fmt.Printf("frames        %d (%d scenes detected)\n", src.TotalFrames(), len(scenes))
	fmt.Printf("video bytes   %d\n", bytes)
	fmt.Printf("annotation    %d bytes (%.3f%% overhead)\n",
		track.Size(), 100*float64(track.Size())/float64(bytes))
	fmt.Printf("wrote         %s\n", *out)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "annotate:", err)
		os.Exit(1)
	}
}
