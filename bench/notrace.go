//go:build !benchtrace

package main

import "hdidx"

// traceBuilt reports whether the layer replay is compiled in; main
// refuses -trace 1 without it, so the stubs below never run.
const traceBuilt = false

func replayServing(runCtx, servingSpec, *servingInputs, servingRecord, *Result) error { return nil }

func replayPredict(runCtx, predictSpec, [][]float64, hdidx.EstimateOptions, float64, *Result) error {
	return nil
}

func observeBench(*Result) {}
