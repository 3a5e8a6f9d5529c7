// Fixture: WallClock in the cluster tier is a clock-confinement finding.
struct Link { WallClock clock; };  // expect(clock-confinement)
