package analysis

// All returns every pvclint analyzer in stable (alphabetical) order.
func All() []*Analyzer {
	return []*Analyzer{
		BoundTag, FloatEq, MapRange, RecorderGuard,
		SeededRand, TimeUnit, Walltime,
	}
}

// ByName resolves an analyzer by its Name; nil when unknown.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
