// Package rad is a from-scratch Go reproduction of "Arming IDS Researchers
// with a Robotic Arm Dataset" (DSN 2022): the RATracer tracing framework,
// the Robotic Arm Dataset (RAD), and the paper's command-stream and
// power-side-channel analyses — together with simulators for every piece of
// hardware the paper's physical deployment relied on.
//
// The package is a facade over the repository's internal packages, cut to
// the names the examples, the root tests and the docs use (the commands
// under cmd/ import the internal packages directly). It exposes four
// capability groups:
//
//   - Tracing: a trusted middlebox (NewMiddlebox/NewMiddleboxServer), the
//     lab-computer tracing session (NewTracingSession, DialMiddlebox), and
//     the DIRECT/REMOTE interception modes of §III.
//   - The lab: NewVirtualLab assembles the five simulated Hein Lab devices
//     (C9, UR3e, IKA, Tecan, Quantos) behind a middlebox under a virtual
//     clock, and the procedure runners (RunJoystick, RunSolubilityN9,
//     RunSolubilityN9UR, RunCrystalSolubility) execute the paper's
//     supervised workloads P1–P4 against it.
//   - The dataset: GenerateDataset synthesizes the full three-month campaign
//     — 128,785 command trace objects over 52 command types, 25 supervised
//     runs with 3 crash anomalies, and UR3e power telemetry.
//   - Analysis & IDS: n-gram models, TF-IDF similarity, perplexity + Jenks
//     anomaly classification, a streaming command IDS, a rule engine, and a
//     power-signature detector.
//
// The internal/experiments package (surfaced through the Fig4…TableI
// functions here and the cmd/radbench binary) regenerates every table and
// figure in the paper's evaluation. See DESIGN.md for the system inventory
// and EXPERIMENTS.md for paper-vs-measured results.
package rad
