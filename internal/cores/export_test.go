package cores

// Exports for the differential tests of package cores_test, which drive
// real BSA transforms and so cannot live inside package cores.

// RefGPP is the node-form reference core.
type RefGPP = refGPP

// NewRefGPP returns a node-form reference core appending onto g.
var NewRefGPP = newRefGPP

// Stages returns every uop's stage times, in issue order.
func (m *refGPP) Stages() [][5]int64 { return m.stages }

// LoggedStages recomputes every logged uop's stage times from the log.
func (m *GPP) LoggedStages() [][5]int64 { return loggedStages(m) }
