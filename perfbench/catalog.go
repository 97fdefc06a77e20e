package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/compensate"
	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/video"
)

// Clip geometry: the streamd default raster and rate, and a fixed clip
// length so every session does the same amount of work.
const (
	clipW      = 120
	clipH      = 90
	clipFPS    = 10
	clipFrames = 24
)

// rungs are the quality rungs fixed sessions request and adaptive
// sessions start from (indexes into compensate.QualityLevels).
var rungs = []int{1, 2, 3}

// devices is the canonical fleet device mix, weighted toward the
// paper's iPAQ 5555 testbed.
var devices = fleetsim.DefaultDevices()

// sceneClass is a scene's luminance regime; the savings the paper
// reports depend mostly on how many scenes are dark, and bright scenes,
// where clipping buys little, have the densest highlights.
type sceneClass int

const (
	classDark sceneClass = iota
	classMid
	classBright
)

// clipClasses is the class make-up of every generated clip (shuffled
// per clip): half dark, a quarter mid and a quarter bright, the nearest
// four-scene mix to the evaluation library's mean of about 44% dark,
// 29% mid and 27% bright scenes (the profiles in
// internal/video/library.go). A fixed make-up keeps the savings and the
// coding cost per session close across seeds, so a seed changes the
// content but not the workload's character.
var clipClasses = []sceneClass{classDark, classDark, classMid, classBright}

// sessionSpec is one entry of the request schedule.
type sessionSpec struct {
	clip     string
	rung     int
	device   string
	adaptive bool
	node     int // index of the node the session is sent to
}

// quality is the budget a session requests: the middle of its rung's
// bracket, so quantisation on the wire cannot land it one rung low.
func (s sessionSpec) quality() float64 {
	return compensate.QualityLevels[s.rung] + 0.025
}

// plan is everything a workload run generates from its seed: the clip
// catalogue, the request schedule, and (cold-miss only) a warm-up clip
// that is played during set-up and never scheduled.
type plan struct {
	clips    []*video.Clip
	schedule []sessionSpec
	warmup   *video.Clip
}

// catalog returns the plan's clips as the servers' catalogue, each
// wrapped by wrap (nil serves the clips as they are).
func (p *plan) catalog(wrap func(name string, src core.Source) core.Source) map[string]core.Source {
	cat := make(map[string]core.Source, len(p.clips)+1)
	add := func(c *video.Clip) {
		var src core.Source = core.ClipSource{Clip: c}
		if wrap != nil {
			src = wrap(c.Name, src)
		}
		cat[c.Name] = src
	}
	for _, c := range p.clips {
		add(c)
	}
	if p.warmup != nil {
		add(p.warmup)
	}
	return cat
}

// rngFor derives the workload's random stream from the seed; the
// workload name is folded in so two workloads at one seed differ.
func rngFor(name string, seed int64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed*1_000_003 + int64(h.Sum64()>>1)))
}

// makePlan generates the catalogue and a schedule of n sessions.
func makePlan(w workload, seed int64, n int) *plan {
	rng := rngFor(w.name, seed)
	p := &plan{}
	nclips := w.clips
	if w.fresh {
		nclips = n
		p.warmup = genClip(rng, "warmup")
	}
	for i := 0; i < nclips; i++ {
		p.clips = append(p.clips, genClip(rng, fmt.Sprintf("%s-%03d", w.name, i)))
	}

	clipCounts := make([]int, len(p.clips))
	for i := range clipCounts {
		clipCounts[i] = 1
	}
	if w.zipf {
		clipCounts = zipfCounts(len(p.clips))
	}
	clipDeck := newDeck(rng, clipCounts)
	rungDeck := newDeck(rng, []int{1, 1, 1})
	devDeck := newDeck(rng, deviceCounts())
	adaptiveDeck := newDeck(rng, []int{10 - w.adaptiveTenths, w.adaptiveTenths})

	p.schedule = make([]sessionSpec, n)
	for k := range p.schedule {
		ci := k
		if !w.fresh {
			ci = clipDeck.deal()
		}
		p.schedule[k] = sessionSpec{
			clip:     p.clips[ci].Name,
			rung:     rungs[rungDeck.deal()],
			device:   devices[devDeck.deal()].Name,
			adaptive: adaptiveDeck.deal() == 1,
			node:     k % w.nodes,
		}
	}
	return p
}

// deviceCounts is the device mix as whole counts per ten sessions.
func deviceCounts() []int {
	counts := make([]int, len(devices))
	for i, d := range devices {
		counts[i] = int(d.Weight*10 + 0.5)
	}
	return counts
}

// genClip draws one clip: the scenes of the clipClasses make-up in a
// random order, of equal length, so every clip holds each class for the
// same share of its frames.
func genClip(rng *rand.Rand, name string) *video.Clip {
	classes := append([]sceneClass(nil), clipClasses...)
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	scenes := make([]video.SceneSpec, len(classes))
	for i, c := range classes {
		scenes[i] = genScene(rng, clipFrames/len(classes), c)
	}
	c, err := video.New(name, clipW, clipH, clipFPS, rng.Int63(), scenes)
	if err != nil {
		// Every parameter above is in range by construction.
		panic(err)
	}
	return c
}

// genScene draws one scene of the given class. The ranges sit in the
// middle of the evaluation library's ranges for the same regimes, and
// the background levels, which set a scene's backlight target, in the
// middle quarter: a seed moves the content (highlights, textures,
// scene order) but keeps the coding cost and the savings of a session
// close to the workload's typical ones. The scene peaks (MaxLuma) of
// the three classes lie in bands at least 0.13 apart, as the library
// keeps adjacent peaks apart, so the max-luminance scene detector
// never merges a dark scene into a bright one and takes its savings.
func genScene(rng *rand.Rand, frames int, class sceneClass) video.SceneSpec {
	s := video.SceneSpec{
		Frames:  frames,
		Chroma:  0.4 + rng.Float64()*0.2,
		Motion:  0.8 + rng.Float64()*0.4,
		Flicker: rng.Float64() * 0.015,
		Hue:     rng.Float64(),
	}
	switch class {
	case classDark:
		s.BaseLuma = 0.27 + rng.Float64()*0.04
		s.LumaSpread = 0.19 + rng.Float64()*0.02
		s.MaxLuma = 0.60 + rng.Float64()*0.06
		s.HighlightFrac = 0.0065 + rng.Float64()*0.009
	case classMid:
		s.BaseLuma = 0.42 + rng.Float64()*0.04
		s.LumaSpread = 0.17 + rng.Float64()*0.012
		s.MaxLuma = 0.79 + rng.Float64()*0.03
		s.HighlightFrac = 0.03 + rng.Float64()*0.02
	default:
		s.BaseLuma = 0.70 + rng.Float64()*0.04
		s.LumaSpread = 0.165 + rng.Float64()*0.02
		s.MaxLuma = 0.95 + rng.Float64()*0.05
		s.HighlightFrac = 0.35 + rng.Float64()*0.05
	}
	return s
}

// zipfCounts gives n clips Zipf(1) popularity as whole counts per
// 40-session block: the first clip is drawn about eight times as often
// as the eighth.
func zipfCounts(n int) []int {
	const block = 40
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	counts := make([]int, n)
	for i := range counts {
		counts[i] = int(block/(h*float64(i+1)) + 0.5)
		if counts[i] < 1 {
			counts[i] = 1
		}
	}
	return counts
}

// deck deals item indexes in exact proportion to their counts: each
// block holds every item count times, shuffled. Dealing from decks
// instead of independent draws keeps the mix of every schedule prefix
// close to the target, so the figures of merit vary little by seed.
type deck struct {
	rng    *rand.Rand
	counts []int
	cards  []int
}

func newDeck(rng *rand.Rand, counts []int) *deck {
	return &deck{rng: rng, counts: counts}
}

func (d *deck) deal() int {
	if len(d.cards) == 0 {
		for i, c := range d.counts {
			for j := 0; j < c; j++ {
				d.cards = append(d.cards, i)
			}
		}
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}
