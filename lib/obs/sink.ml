type t = {
  metrics : Metrics.t;
  trace : Trace.t;
  ledger : Ledger.t;
  timeline : Timeline.t;
  spans : Span.t;
}

let none =
  {
    metrics = Metrics.disabled;
    trace = Trace.none;
    ledger = Ledger.none;
    timeline = Timeline.none;
    spans = Span.none;
  }

let create ?(metrics = true) ?(trace = true) ?trace_capacity ?(ledger = false)
    ?(timeline_interval = 0) ?timeline_capacity ?(spans = false) () =
  {
    metrics = (if metrics then Metrics.create () else Metrics.disabled);
    trace = (if trace then Trace.create ?capacity:trace_capacity () else Trace.none);
    ledger = (if ledger then Ledger.create () else Ledger.none);
    timeline =
      (if timeline_interval > 0 then
         Timeline.create ?capacity:timeline_capacity ~interval:timeline_interval ()
       else Timeline.none);
    spans = (if spans then Span.create () else Span.none);
  }
