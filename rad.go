package rad

import (
	"rad/internal/analysis/jenks"
	"rad/internal/analysis/ngram"
	"rad/internal/analysis/specmine"
	"rad/internal/analysis/stats"
	"rad/internal/analysis/tfidf"
	"rad/internal/attack"
	"rad/internal/device"
	"rad/internal/experiments"
	"rad/internal/ids"
	"rad/internal/middlebox"
	"rad/internal/power"
	"rad/internal/procedure"
	dataset "rad/internal/rad"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/tracer"
	"rad/internal/wire"
)

// --- Devices and commands ---

// Device is the interface implemented by every simulated CPS device and by
// the virtualized proxies a tracing session hands out.
type Device = device.Device

// Command is a single device access crossing the data-collection boundary.
type Command = device.Command

// Device names as they appear in the dataset.
const (
	DeviceC9      = device.C9
	DeviceUR3e    = device.UR3e
	DeviceIKA     = device.IKA
	DeviceTecan   = device.Tecan
	DeviceQuantos = device.Quantos
)

// CommandCatalog returns the 52-command catalog of Fig. 5(a).
func CommandCatalog() []device.CommandSpec { return device.Catalog() }

// --- Clocks ---

// RealClock is the wall clock.
type RealClock = simclock.Real

// NewVirtualClock returns a deterministic clock starting at the given
// instant; it advances only on Sleep/Advance.
var NewVirtualClock = simclock.NewVirtual

// --- Middlebox and tracing (RATracer) ---

// NetworkProfile emulates the lab network (LANProfile) or a cloud WAN
// (CloudProfile) between the lab computer and the middlebox.
type NetworkProfile = middlebox.NetworkProfile

// NewMiddlebox builds the trusted middlebox core of Fig. 1 — device
// registry, command execution, and trace logging — logging to sink (which
// may be nil).
func NewMiddlebox(clock simclock.Clock, sink store.Sink) *middlebox.Core {
	return middlebox.NewCore(clock, sink)
}

// NewMiddleboxServer wraps a middlebox handler (a core, or a fleet router
// over many) for TCP serving with an emulated network profile.
var NewMiddleboxServer = middlebox.NewHandlerServer

// TracingConfig configures a session: default mode, per-device overrides
// (hybrid configurations), and procedure labels.
type TracingConfig = tracer.Config

// ModeRemote is the REMOTE interception mode (§III): the middlebox owns the
// device and executes each command.
const ModeRemote = tracer.ModeRemote

// Transport carries requests from the lab computer to the middlebox; custom
// implementations (or wrappers such as the attack Interceptor) plug into a
// session or VirtualLabConfig.WrapTransport.
type Transport = tracer.Transport

// NewTracingSession creates a session over a transport.
var NewTracingSession = tracer.NewSession

// DialMiddlebox connects to a middlebox server over TCP.
var DialMiddlebox = tracer.DialTCP

// NewTransportRouter routes each device's traffic to its own middlebox — the
// distributed deployment §VII anticipates — with an optional fallback
// transport.
var NewTransportRouter = tracer.NewRouter

// --- Trace storage ---

// TraceRecord is one trace object in the command dataset.
type TraceRecord = store.Record

// NewTraceStore returns an empty in-memory trace store (the MongoDB
// analog).
var NewTraceStore = store.NewMemStore

// NewCSVWriter and NewJSONLWriter stream trace records to files.
var (
	NewCSVWriter   = store.NewCSVWriter
	NewJSONLWriter = store.NewJSONLWriter
)

// ReadTraceCSV and ReadTraceJSONL parse exported traces back.
var (
	ReadTraceCSV   = store.ReadCSV
	ReadTraceJSONL = store.ReadJSONL
)

// UnknownProcedure labels all unsupervised commands (§IV).
const UnknownProcedure = store.UnknownProcedure

// --- Persistent trace storage (internal/tracedb) ---

// TraceDB is the persistent, indexed, crash-safe embedded trace store — the
// durable stand-in for RATracer's MongoDB instance. NewMiddlebox takes it
// as its sink, so the middlebox logs straight to it; reopen the directory
// to query a campaign without regenerating it.
type TraceDB = tracedb.DB

// TraceDBOptions tunes segment rotation, the timing clock and the storage
// lifecycle.
type TraceDBOptions = tracedb.Options

// TraceQuery selects records by time range, device, command type,
// procedure, and run — the analyses' query shapes.
type TraceQuery = tracedb.Query

// OpenTraceDB opens (or creates) a trace store directory, recovering and
// truncating any torn tail left by a crash — including half-finished
// compaction temps and segments superseded by a completed compaction.
var OpenTraceDB = tracedb.Open

// TraceLifecycleOptions configures the store's lifecycle engine: the
// cadence of its background pass, which compacts fragmented segments into
// 64 KiB blocks, and whole-segment retention (max age, max bytes). Set on
// TraceDBOptions.Lifecycle.
type TraceLifecycleOptions = tracedb.LifecycleOptions

// --- Live streaming and online detection (internal/stream) ---

// NewBroker returns an empty broker — the live fan-out layer publishing
// every committed trace record (and power sample) to per-subscriber ring
// buffers. Attach it to a middlebox with AttachBroker or to a store with
// Broker.AttachStore.
var NewBroker = stream.NewBroker

// NewStreamServer wraps a broker (and an optional TraceDB for snapshot
// replays) for TCP serving.
var NewStreamServer = stream.NewServer

// StreamResilientTail is the self-healing consumer: an auto-reconnecting
// tail that tracks the last delivered sequence number, redials with
// jittered exponential backoff (reproducible per seed), and resumes from
// where it left off — exactly-once delivery across server restarts.
type (
	StreamResilientTail   = stream.ResilientTail
	StreamResilientConfig = stream.ResilientConfig
)

// NewStreamResilientTail builds an auto-reconnecting tail; the first
// connection is dialed lazily by the first Recv.
var NewStreamResilientTail = stream.NewResilientTail

// StreamSubscribe is the wire-protocol subscription request a stream client
// sends (filters, snapshot, policy, buffer).
type StreamSubscribe = wire.Subscribe

// StreamEventTrace is the event kind carrying a trace record;
// StreamPolicyBlock asks for lossless, backpressured delivery.
const (
	StreamEventTrace  = wire.EventTrace
	StreamPolicyBlock = wire.PolicyBlock
)

// --- The virtual lab and procedures ---

// VirtualLab is a complete in-process deployment: five simulated devices on
// a middlebox under a virtual clock with a REMOTE-mode tracing session.
type VirtualLab = procedure.VirtualLab

// VirtualLabConfig configures NewVirtualLab.
type VirtualLabConfig = procedure.VirtualLabConfig

// NewVirtualLab assembles a virtual lab.
var NewVirtualLab = procedure.NewVirtualLab

// ProcedureOptions tune a procedure run (vials, solid, joystick prefix,
// early stops, crash injection, operator quirks).
type ProcedureOptions = procedure.Options

// CrashPlan schedules a physical crash partway through a run.
type CrashPlan = procedure.CrashPlan

// Procedure type labels (§IV).
const (
	ProcedureP1 = procedure.P1
	ProcedureP2 = procedure.P2
)

// The paper's workloads.
var (
	RunJoystick          = procedure.RunJoystick
	RunSolubilityN9      = procedure.RunSolubilityN9
	RunSolubilityN9UR    = procedure.RunSolubilityN9UR
	RunCrystalSolubility = procedure.RunCrystalSolubility
)

// --- The dataset ---

// Dataset is the generated Robotic Arm Dataset.
type Dataset = dataset.Dataset

// GenerateConfig configures dataset generation (seed, scale, and worker
// count; the output is byte-identical for every worker count).
type GenerateConfig = dataset.Config

// GenerateDataset synthesizes the three-month campaign.
var GenerateDataset = dataset.Generate

// TotalTraceObjects is the command-dataset size the paper reports.
const TotalTraceObjects = dataset.TotalTraceObjects

// DeviceTargets returns the per-device totals of Fig. 5(a)'s legend.
var DeviceTargets = dataset.DeviceTargets

// --- Power telemetry ---

// PowerPropertyNames returns the 122 property names of the sample schema.
var PowerPropertyNames = power.PropertyNames

// CurrentSeries extracts one joint's current series from samples.
var CurrentSeries = power.CurrentSeries

// --- Analyses (§V) ---

// TrainNGram fits a Laplace-smoothed order-n model with the given
// smoothing constant.
var TrainNGram = ngram.Train

// TopNGrams returns the k most frequent n-grams (Fig. 5b). Counting fans
// out across GOMAXPROCS workers on large corpora; TopNGramsParallel bounds
// the worker count explicitly. Both produce identical output at any worker
// count.
var (
	TopNGrams         = ngram.TopK
	TopNGramsParallel = ngram.TopKParallel
)

// FitTFIDF fits a vectorizer; CosineSimilarity compares two fingerprints;
// SimilarityMatrix computes all pairwise similarities (Fig. 6) on
// GOMAXPROCS workers.
var (
	FitTFIDF         = tfidf.Fit
	CosineSimilarity = tfidf.Cosine
	SimilarityMatrix = tfidf.SimilarityMatrix
)

// JenksSplit2 splits scores into two natural classes (§V-B).
var JenksSplit2 = jenks.Split2

// BoxStats computes Fig. 4-style box-plot statistics; Pearson computes the
// correlation coefficient used in §VI.
var (
	BoxStats = stats.BoxStats
	Pearson  = stats.Pearson
)

// --- IDS prototypes ---

// PerplexityDetector classifies command sequences by n-gram perplexity.
type PerplexityDetector = ids.PerplexityDetector

// TrainPerplexityDetector fits a detector on valid command sequences.
var TrainPerplexityDetector = ids.TrainPerplexity

// NewRuleEngine builds the middlebox's first-line rule-based safeguard: the
// restricted command set, device initialization order, and mutating
// commands that fail.
var NewRuleEngine = ids.NewRuleEngine

// PowerDetector matches joint-current signatures (§VI / RQ3).
type PowerDetector = ids.PowerDetector

// NewPowerDetector creates an empty power-signature detector.
var NewPowerDetector = ids.NewPowerDetector

// --- Experiment harnesses (one per paper table/figure) ---

// Experiment configurations.
type (
	Fig4Config   = experiments.Fig4Config
	TableIConfig = experiments.TableIConfig
)

// Experiment harnesses.
var (
	Fig4ResponseTime         = experiments.Fig4ResponseTime
	Fig5aCommandDistribution = experiments.Fig5aCommandDistribution
	Fig5bTopNGrams           = experiments.Fig5bTopNGrams
	Fig6SimilarityMatrix     = experiments.Fig6SimilarityMatrix
	TableIPerplexityIDS      = experiments.TableIPerplexityIDS
	Fig7aSegments            = experiments.Fig7aSegments
	Fig7bSolids              = experiments.Fig7bSolids
	Fig7cVelocities          = experiments.Fig7cVelocities
	Fig7dWeights             = experiments.Fig7dWeights
)

// RenderFig4 formats a Fig. 4 result in the paper's box-plot table shape.
var RenderFig4 = experiments.RenderFig4

// --- Extensions beyond the paper's tables (its §VII future work) ---

// FitArgQuantizer calibrates the numeric-argument buckets of the
// argument-aware perplexity IDS ("bring command arguments into the fold").
var FitArgQuantizer = ids.FitArgQuantizer

// NewAutoLabeler builds a labeler that recovers procedure labels for
// unlabelled trace segments from supervised runs ("find ways to
// automatically generate labels").
var NewAutoLabeler = ids.NewAutoLabeler

// AttackConfig parameterizes the man-in-the-middle Interceptor;
// AttackScenario describes one benchmark run ("generate many more
// anomalous traces … for benchmarking other IDS").
type (
	AttackConfig   = attack.Config
	AttackScenario = attack.Scenario
	Interceptor    = attack.Interceptor
)

// Attack families.
const (
	AttackInjection   = attack.Injection
	AttackSpeedTamper = attack.SpeedTamper
)

// NewInterceptor wraps a transport with an attack; RunAttackScenario
// executes one scenario; StandardAttackSuite returns the benchmark set.
var (
	NewInterceptor      = attack.New
	RunAttackScenario   = attack.Run
	StandardAttackSuite = attack.StandardSuite
)

// Spec is a mined procedure specification: repeated blocks with iteration
// bounds (§V's specification-mining use case). Mining, merging across runs,
// and the corpus-level block summary:
type Spec = specmine.Spec

var (
	MineSpec      = specmine.Mine
	MergeSpecs    = specmine.Merge
	SpecCoverage  = specmine.Coverage
	TopSpecBlocks = specmine.TopBlocks
)
