package graph

import "testing"

// Hooks for the external graph_test package, whose tests need packages
// that import this one.

// BuilderRelabel is the Builder reference path for Relabel.
var BuilderRelabel = builderRelabel

// SameAsBuilder fails t unless got equals want bit for bit, derived arrays
// and binary encoding included.
func SameAsBuilder(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	sameAsBuilder(t, name, got, want)
}
