"""Queue-size reports for the adaptive schedulers.

Every uplink frame that arrives piggybacks the size of the station's next
frame: the head of its queue, or the next frame its encoder will produce.
The AP holds the latest report per station (`engine._Station.report`); a
newer report replaces it, a lost frame leaves it as it is, and a frame
sent with nothing left in the trace clears it. The adaptive schedulers
take the report when they size the station's next grant, which the engine
makes exactly the reported bytes plus one MSDU's overhead, so a report
sizes one grant only. A station with no report (first poll, lost frame,
or nothing left to send) falls back to the mean-based reference grant for
one interval.
"""
