// Package proximity implements the paper's stated extension (Section 6):
// viruses that spread over the Bluetooth interface rather than MMS. Phones
// move through a square arena under a random-waypoint mobility model; when
// an infected phone dwells within radio range of a susceptible phone, it
// attempts a transfer, and the familiar consent model (accept probability
// AF/2^n) gates infection.
//
// Unlike the MMS model there is no network infrastructure: no gateway, no
// provider-side responses. The package exists to compare infrastructure-free
// propagation against MMS propagation and to exercise the same consent
// mathematics on a different contact process.
package proximity

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/curve"
	"repro/internal/des"
	"repro/internal/mms"
	"repro/internal/rng"
)

// Config parameterizes the Bluetooth spread model.
type Config struct {
	// Population is the number of phones.
	Population int
	// SusceptibleFraction is the vulnerable share (as in the MMS model).
	SusceptibleFraction float64
	// ArenaSize is the side length of the square arena in meters.
	ArenaSize float64
	// Range is the Bluetooth radio range in meters (typical: 10).
	Range float64
	// SpeedMin and SpeedMax bound waypoint movement speeds (m/s).
	SpeedMin, SpeedMax float64
	// PauseMean is the mean pause at each waypoint.
	PauseMean time.Duration
	// ScanInterval is how often an infected phone scans for neighbors.
	ScanInterval time.Duration
	// TransferTime is how long a Bluetooth push takes once a target is
	// found; the pair must remain in range.
	TransferTime time.Duration
	// AcceptanceFactor is the consent model's AF (paper: 0.468).
	AcceptanceFactor float64
	// Horizon is the simulated duration.
	Horizon time.Duration

	// The MMS study's provider-side mechanisms have no Bluetooth
	// equivalent (there is no gateway), so only device-side defenses
	// apply — exactly the asymmetry the paper's future-work section asks
	// about.

	// EducationAcceptance, when nonzero, replaces the acceptance factor
	// with one whose eventual acceptance equals this value (user
	// education).
	EducationAcceptance float64
	// PatchDevelopment, when nonzero, starts an immunization campaign:
	// after the first PatchDetectCount infections, a patch is developed
	// for PatchDevelopment and then deployed uniformly over
	// PatchDeployment; patched phones become immune (or stop transferring
	// if already infected).
	PatchDevelopment time.Duration
	// PatchDeployment is the deployment window (see PatchDevelopment).
	PatchDeployment time.Duration
	// PatchDetectCount is the infection count that triggers patch
	// development (default 3 when a campaign is configured).
	PatchDetectCount int
}

// DefaultConfig returns a laptop-scale Bluetooth scenario: 200 phones in a
// 500 m square (a dense urban plaza), 10 m radio range.
func DefaultConfig() Config {
	return Config{
		Population:          200,
		SusceptibleFraction: 0.8,
		ArenaSize:           500,
		Range:               10,
		SpeedMin:            0.5,
		SpeedMax:            2.0,
		PauseMean:           2 * time.Minute,
		ScanInterval:        time.Minute,
		TransferTime:        30 * time.Second,
		AcceptanceFactor:    mms.PaperAcceptanceFactor,
		Horizon:             48 * time.Hour,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Population < 2:
		return errors.New("proximity: population must be at least 2")
	case c.SusceptibleFraction <= 0 || c.SusceptibleFraction > 1:
		return fmt.Errorf("proximity: susceptible fraction %v outside (0,1]", c.SusceptibleFraction)
	case c.ArenaSize <= 0:
		return errors.New("proximity: arena size must be positive")
	case c.Range <= 0:
		return errors.New("proximity: radio range must be positive")
	case c.SpeedMin <= 0 || c.SpeedMax < c.SpeedMin:
		return fmt.Errorf("proximity: invalid speed range [%v,%v]", c.SpeedMin, c.SpeedMax)
	case c.ScanInterval <= 0:
		return errors.New("proximity: scan interval must be positive")
	case c.TransferTime < 0:
		return errors.New("proximity: negative transfer time")
	case c.AcceptanceFactor <= 0 || c.AcceptanceFactor > 2:
		return fmt.Errorf("proximity: acceptance factor %v outside (0,2]", c.AcceptanceFactor)
	case c.Horizon <= 0:
		return errors.New("proximity: horizon must be positive")
	case c.EducationAcceptance < 0 || c.EducationAcceptance >= 1:
		return fmt.Errorf("proximity: education acceptance %v outside [0,1)", c.EducationAcceptance)
	case c.PatchDevelopment < 0 || c.PatchDeployment < 0:
		return errors.New("proximity: negative patch timings")
	case c.PatchDetectCount < 0:
		return errors.New("proximity: negative patch detect count")
	}
	return nil
}

// phone is one mobile device.
type phone struct {
	state    mms.State
	received int // infected pushes received, the consent model's n
	patched  bool

	// random-waypoint state: the phone moves from (x0,y0) at time t0
	// toward (x1,y1), arriving at t1, then pauses until tMove.
	x0, y0, x1, y1 float64
	t0, t1         time.Duration
	src            *rng.Source
}

// pos returns the phone's position at time t.
func (p *phone) pos(t time.Duration) (x, y float64) {
	if t >= p.t1 {
		return p.x1, p.y1
	}
	if t <= p.t0 || p.t1 == p.t0 {
		return p.x0, p.y0
	}
	frac := float64(t-p.t0) / float64(p.t1-p.t0)
	return p.x0 + frac*(p.x1-p.x0), p.y0 + frac*(p.y1-p.y0)
}

// Result is one replication's outcome.
type Result struct {
	// Infections is the infected-count step curve.
	Infections *curve.Curve
	// FinalInfected is the infected count at the horizon.
	FinalInfected int
	// Encounters counts in-range scan hits.
	Encounters uint64
	// Transfers counts completed Bluetooth pushes (pre-consent).
	Transfers uint64
	// Patched counts phones reached by the immunization campaign.
	Patched int
}

// run is one replication's state. Its cfg is private to the run, with the
// education acceptance factor and the default detect count resolved. Each
// event kind has one long-lived handler; the event argument is the phone
// id, and a transfer packs its source and target as i<<32 | target.
// Scheduling cannot fail here (every handler is set, no event is due in the
// past), so where a failed schedule would skip nothing more, its error is
// discarded.
type run struct {
	cfg          Config
	sim          *des.Simulation
	phones       []phone
	res          *Result // FinalInfected counts infections as they happen
	patchSrc     *rng.Source
	patchStarted bool

	waypointH, scanH, transferH, patchH des.ArgHandler
}

// Run executes one replication with the given seed.
func Run(cfg Config, seed uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(seed)
	r := &run{
		cfg:    cfg,
		sim:    des.New(),
		phones: make([]phone, cfg.Population),
		res:    &Result{Infections: curve.New(0)},
	}
	r.waypointH = func(_ *des.Simulation, arg uint64) { r.scheduleWaypoint(int(arg)) }
	r.scanH = func(_ *des.Simulation, arg uint64) { r.scan(int(arg)) }
	r.transferH = func(_ *des.Simulation, arg uint64) { r.transfer(int(arg>>32), int(uint32(arg))) }
	r.patchH = func(_ *des.Simulation, arg uint64) { r.patch(int(arg)) }

	perm := root.Stream(1).Perm(cfg.Population)
	k := int(cfg.SusceptibleFraction*float64(cfg.Population) + 0.5)
	for i := range r.phones {
		r.phones[i].state = mms.StateNotVulnerable
		r.phones[i].src = root.Stream(0x6274<<32 | uint64(i)) // "bt" | id
		// The start position is the end of a zero-length first leg.
		r.phones[i].x1 = r.phones[i].src.Uniform(0, cfg.ArenaSize)
		r.phones[i].y1 = r.phones[i].src.Uniform(0, cfg.ArenaSize)
	}
	for i := 0; i < k; i++ {
		r.phones[perm[i]].state = mms.StateSusceptible
	}

	if cfg.EducationAcceptance > 0 {
		af, err := mms.SolveAcceptanceFactor(cfg.EducationAcceptance)
		if err != nil {
			return nil, fmt.Errorf("proximity: education: %w", err)
		}
		r.cfg.AcceptanceFactor = af
	}
	r.patchSrc = root.Stream(2)
	if r.cfg.PatchDetectCount == 0 {
		r.cfg.PatchDetectCount = 3
	}

	// Waypoint movement: each phone perpetually picks a destination,
	// travels, pauses, repeats.
	for i := range r.phones {
		r.scheduleWaypoint(i)
	}
	// Seed: the first susceptible phone.
	r.infect(perm[0], 0)
	_, _ = r.sim.ScheduleArgAfter(cfg.ScanInterval, r.scanH, uint64(perm[0]))

	r.sim.RunUntil(cfg.Horizon)
	return r.res, nil
}

// infect marks phone i infected at time at and starts the patch campaign
// once the detection count is reached.
func (r *run) infect(i int, at time.Duration) {
	r.phones[i].state = mms.StateInfected
	r.res.FinalInfected++
	// Infection times are non-decreasing within a run.
	_ = r.res.Infections.Append(at, float64(r.res.FinalInfected))
	if !r.patchStarted && r.cfg.PatchDevelopment > 0 && r.res.FinalInfected >= r.cfg.PatchDetectCount {
		r.patchStarted = true
		r.startPatching()
	}
}

// startPatching schedules every phone's patch: after the development time,
// spread uniformly over the deployment window.
func (r *run) startPatching() {
	for j := range r.phones {
		offset := r.cfg.PatchDevelopment
		if r.cfg.PatchDeployment > 0 {
			offset += time.Duration(r.patchSrc.Uniform(0, float64(r.cfg.PatchDeployment)))
		}
		if _, err := r.sim.ScheduleArgAfter(offset, r.patchH, uint64(j)); err != nil {
			return
		}
	}
}

// patch immunizes phone j, or stops it transferring if already infected.
func (r *run) patch(j int) {
	if p := &r.phones[j]; !p.patched {
		p.patched = true
		r.res.Patched++
		if p.state == mms.StateSusceptible {
			p.state = mms.StateImmune
		}
	}
}

// scheduleWaypoint ends phone i's leg at its destination, draws the pause,
// destination and speed of its next leg, and schedules its arrival.
func (r *run) scheduleWaypoint(i int) {
	p := &r.phones[i]
	p.x0, p.y0 = p.x1, p.y1
	depart := r.sim.Now() + time.Duration(p.src.Exp(float64(r.cfg.PauseMean)))
	destX := p.src.Uniform(0, r.cfg.ArenaSize)
	destY := p.src.Uniform(0, r.cfg.ArenaSize)
	speed := p.src.Uniform(r.cfg.SpeedMin, r.cfg.SpeedMax)
	dist := math.Hypot(destX-p.x0, destY-p.y0)
	travel := time.Duration(dist / speed * float64(time.Second))
	p.x1, p.y1 = destX, destY
	p.t0, p.t1 = depart, depart+travel
	_, _ = r.sim.ScheduleArgAt(p.t1, r.waypointH, uint64(i))
}

// scan looks for a susceptible phone within range of infected phone i and
// starts a push to the first one found, then rescans.
func (r *run) scan(i int) {
	p := &r.phones[i]
	if p.patched {
		return // the patch halts further dissemination
	}
	now := r.sim.Now()
	x, y := p.pos(now)
	rangeSq := r.cfg.Range * r.cfg.Range
	for j := range r.phones {
		if j == i || r.phones[j].state != mms.StateSusceptible {
			continue
		}
		tx, ty := r.phones[j].pos(now)
		dx, dy := tx-x, ty-y
		if dx*dx+dy*dy > rangeSq {
			continue
		}
		r.res.Encounters++
		if _, err := r.sim.ScheduleArgAfter(r.cfg.TransferTime, r.transferH, uint64(i)<<32|uint64(j)); err != nil {
			return
		}
		break // one push per scan
	}
	_, _ = r.sim.ScheduleArgAfter(r.cfg.ScanInterval, r.scanH, uint64(i))
}

// transfer completes a push from phone i to target, if the pair is still
// in range, and applies the consent model.
func (r *run) transfer(i, target int) {
	end := r.sim.Now()
	ax, ay := r.phones[i].pos(end)
	bx, by := r.phones[target].pos(end)
	dx, dy := bx-ax, by-ay
	if dx*dx+dy*dy > r.cfg.Range*r.cfg.Range {
		return
	}
	r.res.Transfers++
	tp := &r.phones[target]
	if tp.state != mms.StateSusceptible || tp.patched {
		return
	}
	tp.received++
	if tp.src.Bool(mms.AcceptanceProbability(r.cfg.AcceptanceFactor, tp.received)) {
		r.infect(target, end)
		_, _ = r.sim.ScheduleArgAfter(r.cfg.ScanInterval, r.scanH, uint64(target))
	}
}
