package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mms"
	"repro/internal/rng"
	"repro/internal/store"
)

// This file content-addresses core.Config values so replication results can
// be shared across studies: a Baseline scenario referenced by several
// figures hashes to the same fingerprint everywhere, and the replication
// cache then simulates it once per seed. The address must be sound — two
// configs with equal fingerprints must produce byte-identical results for
// every seed — so the encoding is built exclusively from declarative data:
//
//   - plain fields are written as canonical key=value lines (durations as
//     nanosecond integers, floats in exact hexadecimal, strings quoted);
//   - rng.Dist values are encoded by concrete type and parameters, and only
//     for the distributions this module defines;
//   - response mechanisms are encoded through mms.ResponseDescriber, the
//     opt-in contract that a mechanism's behaviour is fully captured by a
//     parameter string.
//
// Anything opaque — a CSRBuilder or PostRun func, a foreign Dist
// implementation, a factory whose product is not describable — makes the
// config uncacheable rather than guessably hashable. Uncacheable configs
// always run; they only forgo result sharing.
//
// fingerprintSchema versions the encoding: bump it whenever the canonical
// text for an existing config changes meaning, so stale addresses cannot
// collide with new ones (the cache is in-memory only, but sweeps may
// outlive many config generations in one process). Schema 3: responses
// (and background legitimate traffic) now run on the sharded path, so a
// sharded config with responses denotes a real trajectory rather than a
// validation error — and one computed under different barrier semantics
// than any schema-2 address.
const fingerprintSchema = "3"

// Fingerprint is the content address of a core.Config, or the reason it
// has none. The zero value is "not cacheable, no reason recorded".
type Fingerprint struct {
	sum      [sha256.Size]byte
	ok       bool
	opacity  string
	canonLen int
}

// Cacheable reports whether the config hashed cleanly.
func (f Fingerprint) Cacheable() bool { return f.ok }

// StoreKey returns the persistent-store address of one replication of
// this config, or ok=false for uncacheable configs, which never touch
// the store.
func (f Fingerprint) StoreKey(seed uint64) (store.Key, bool) {
	if !f.ok {
		return store.Key{}, false
	}
	return store.Key{Sum: f.sum, Seed: seed}, true
}

// Opacity names the first opaque element that made the config uncacheable;
// empty when Cacheable.
func (f Fingerprint) Opacity() string { return f.opacity }

// String renders the address for logs and tests: a short hash prefix, or
// the opacity reason.
func (f Fingerprint) String() string {
	if !f.ok {
		return "uncacheable(" + f.opacity + ")"
	}
	return hex.EncodeToString(f.sum[:8])
}

// ConfigFingerprint derives cfg's content address. It invokes each response
// factory once to obtain a describable instance; factories are already
// required to be cheap and side-effect-free (they run once per
// replication), so the extra construction is safe.
func ConfigFingerprint(cfg core.Config) Fingerprint {
	w := &fpWriter{}
	w.field("schema", fingerprintSchema)

	w.field("population", strconv.Itoa(cfg.Population))
	w.field("susceptible", hexFloat(cfg.SusceptibleFraction))

	if cfg.CSRBuilder != nil {
		w.opaque("csr-builder func")
	}
	w.field("graph.n", strconv.Itoa(cfg.Graph.N))
	w.field("graph.meandegree", hexFloat(cfg.Graph.MeanDegree))
	w.field("graph.exponent", hexFloat(cfg.Graph.Exponent))
	w.field("graph.mindegree", strconv.Itoa(cfg.Graph.MinDegree))
	w.field("graph.maxdegree", strconv.Itoa(cfg.Graph.MaxDegree))
	w.field("graph.locality", strconv.FormatBool(cfg.Graph.Locality))
	w.field("graph.longrange", hexFloat(cfg.Graph.LongRangeFraction))

	w.field("virus.name", strconv.Quote(cfg.Virus.Name))
	w.field("virus.targeting", strconv.Itoa(int(cfg.Virus.Targeting)))
	w.field("virus.contactorder", strconv.Itoa(int(cfg.Virus.ContactOrder)))
	w.field("virus.recipients", strconv.Itoa(cfg.Virus.RecipientsPerMessage))
	w.field("virus.validfraction", hexFloat(cfg.Virus.ValidNumberFraction))
	w.field("virus.minwait", durNS(cfg.Virus.MinWait))
	w.dist("virus.extrawait", cfg.Virus.ExtraWait)
	w.field("virus.dormancy", durNS(cfg.Virus.Dormancy))
	w.field("virus.quota", strconv.Itoa(int(cfg.Virus.Quota)))
	w.field("virus.perquota", strconv.Itoa(cfg.Virus.MessagesPerQuota))
	w.field("virus.period", durNS(cfg.Virus.Period))
	w.field("virus.periodaligned", strconv.FormatBool(cfg.Virus.PeriodAligned))
	w.dist("virus.reboot", cfg.Virus.RebootInterval)

	w.dist("net.delivery", cfg.Network.DeliveryDelay)
	w.dist("net.read", cfg.Network.ReadDelay)
	w.field("net.acceptance", hexFloat(cfg.Network.AcceptanceFactor))
	w.field("net.detectthreshold", strconv.Itoa(cfg.Network.GatewayDetectThreshold))
	w.field("net.allowduplicates", strconv.FormatBool(cfg.Network.AllowDuplicateTrials))
	w.field("net.lossprob", hexFloat(cfg.Network.DeliveryLossProb))
	w.dist("net.legit", cfg.Network.LegitSendInterval)
	w.schedule("net.faults", cfg.Network.Faults)

	// cfg.Faults overrides Network.Faults at run time; both participate in
	// the address so either wiring hashes distinctly.
	w.schedule("faults", cfg.Faults)

	for i, factory := range cfg.Responses {
		key := "response." + strconv.Itoa(i)
		if factory == nil {
			w.opaque(key + " nil factory")
			continue
		}
		r := factory()
		if r == nil {
			w.opaque(key + " factory built nil")
			continue
		}
		d, ok := r.(mms.ResponseDescriber)
		if !ok {
			w.opaque(key + " (" + r.Name() + ") has no descriptor")
			continue
		}
		w.field(key, strconv.Quote(d.Descriptor()))
	}

	w.field("seeds", strconv.Itoa(cfg.InitialInfected))
	w.field("horizon", durNS(cfg.Horizon))

	// The shard partition and exchange window shape the trajectory (the
	// conservative-window protocol clamps cross-shard arrivals to barriers),
	// so they are part of the address. ShardWorkers is deliberately absent:
	// pool width is pure scheduling and never perturbs results (pinned by
	// TestShardedRunDeterministicAcrossWorkerCounts).
	w.field("shards", strconv.Itoa(cfg.Shards))
	w.field("shardwindow", durNS(cfg.ShardWindow))

	if cfg.PostRun != nil {
		w.opaque("post-run hook")
	}

	return w.fingerprint()
}

// fpWriter accumulates the canonical text and the first opacity reason.
type fpWriter struct {
	b       strings.Builder
	opacity string
}

func (w *fpWriter) field(key, value string) {
	w.b.WriteString(key)
	w.b.WriteByte('=')
	w.b.WriteString(value)
	w.b.WriteByte('\n')
}

func (w *fpWriter) opaque(reason string) {
	if w.opacity == "" {
		w.opacity = reason
	}
}

// dist writes a distribution field, or marks the config opaque for
// distribution types this module does not define.
func (w *fpWriter) dist(key string, d rng.Dist) {
	switch v := d.(type) {
	case nil:
		w.field(key, "nil")
	case rng.Constant:
		w.field(key, "const("+durNS(v.V)+")")
	case rng.Exponential:
		w.field(key, "exp("+durNS(v.MeanD)+")")
	case rng.UniformDist:
		w.field(key, "uniform("+durNS(v.Lo)+","+durNS(v.Hi)+")")
	default:
		w.opaque(key + " has opaque distribution " + v.String())
	}
}

// schedule writes a fault schedule field by walking its declarative parts.
func (w *fpWriter) schedule(key string, s *faults.Schedule) {
	if s == nil {
		w.field(key, "nil")
		return
	}
	for i, win := range s.Outages {
		w.field(key+".outage."+strconv.Itoa(i),
			durNS(win.Start)+","+durNS(win.End)+","+hexFloat(win.Capacity))
	}
	w.field(key+".retry", strconv.Itoa(s.Retry.MaxAttempts)+","+
		durNS(s.Retry.Base)+","+durNS(s.Retry.Max)+","+hexFloat(s.Retry.Jitter))
	w.dist(key+".churn.up", s.Churn.UpTime)
	w.dist(key+".churn.down", s.Churn.DownTime)
	w.field(key+".drain", durNS(s.DrainSpread))
}

func (w *fpWriter) fingerprint() Fingerprint {
	if w.opacity != "" {
		return Fingerprint{opacity: w.opacity}
	}
	canon := w.b.String()
	return Fingerprint{
		sum:      sha256.Sum256([]byte(canon)),
		ok:       true,
		canonLen: len(canon),
	}
}

// hexFloat renders a float exactly ('x' format round-trips every bit), so
// fingerprints never merge configs that differ below decimal precision.
func hexFloat(f float64) string {
	return strconv.FormatFloat(f, 'x', -1, 64)
}

// durNS renders a duration as integer nanoseconds.
func durNS(d time.Duration) string {
	return strconv.FormatInt(int64(d), 10)
}
