type t = { mutable ewma_ns : float; mutable samples : int }

let create () = { ewma_ns = 0.; samples = 0 }

let alpha = 0.2

let observe t ~service_ns =
  let s = Int64.to_float service_ns in
  t.samples <- t.samples + 1;
  t.ewma_ns <-
    (if t.samples = 1 then s else (alpha *. s) +. ((1. -. alpha) *. t.ewma_ns))

let projected_wait_ms t ~queue_depth ~workers =
  if t.samples = 0 || queue_depth <= 0 then 0
  else
    int_of_float
      (Float.ceil
         (t.ewma_ns *. float_of_int queue_depth
         /. float_of_int (max 1 workers)
         /. 1e6))

type decision = Admit | Reject of Api.Response.rejection

let decide t ~queue_depth ~workers ~budget_ms =
  match budget_ms with
  | None -> Admit
  | Some deadline ->
      let projected_wait_ms = projected_wait_ms t ~queue_depth ~workers in
      if projected_wait_ms > deadline then
        Reject { Api.Response.projected_wait_ms; queue_depth }
      else Admit
