"""Resource mScopeMonitors: SAR, IOstat, Collectl samplers."""
