package monitor

// Burn returns the class's burn rate as of the last sampling round.
func (m *SLOMonitor) Burn(class string) float64 {
	if m == nil {
		return 0
	}
	for _, st := range m.classes {
		if st.obj.Class == class {
			return st.burn
		}
	}
	return 0
}
