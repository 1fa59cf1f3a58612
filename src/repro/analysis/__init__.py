"""Analysis over mScopeDB: response times, queues, causality, diagnosis."""
