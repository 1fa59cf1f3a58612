"""mScopeDB: the dynamic data warehouse and its exploration API."""
