"""mScopeMonitors: event instrumentation and resource samplers."""
