#!/usr/bin/env bash
# Builds the serving binaries and the benchmark from the checkout it sits
# in, then runs one workload:
#
#   bash perfbench/run.sh --workload train-200 --seed 1 --seconds 20 --trace 0
#
# --workload all runs train-200, sweep-8k and interactive-routed in turn.
#
# Run it from the repository root. Every build product and scratch file
# stays under .bench_build/ in that root; the Go toolchain's caches are
# pointed there too, so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/bin" "${build}/tmp"
export GOCACHE="${build}/gocache" GOTMPDIR="${build}/tmp"
export GOPATH="${build}/gopath" GOMODCACHE="${build}/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps telemetry counters under the user config directory
# and, unless telemetry is off, forks a detached sidecar that outlives the
# build. Turn it off before the first go command runs.
export XDG_CONFIG_HOME="${build}/config"
mkdir -p "${XDG_CONFIG_HOME}/go/telemetry"
echo off > "${XDG_CONFIG_HOME}/go/telemetry/mode"

# The serving tier the serving workloads drive as child processes.
go build -o "${build}/bin/" ./cmd/hydra-serve ./cmd/hydra-router
(cd perfbench && go build -o "${build}/bin/perfbench" .)

exec "${build}/bin/perfbench" -bin "${build}/bin" -work "${build}" "$@"
