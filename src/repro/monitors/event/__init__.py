"""Event mScopeMonitors: per-tier request-boundary instrumentation."""
