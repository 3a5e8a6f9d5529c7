// Fixture: Stopwatch is no raw clock, so only clock-confinement fires.
void tick() { Stopwatch sw; }  // expect(clock-confinement)
