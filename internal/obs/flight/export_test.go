package flight

// ScriptClock exposes the record tests' scripted clock to the external
// test package, which may import what imports flight.
var ScriptClock = scriptClock
