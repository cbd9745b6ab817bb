open Pmtest_util

type t = { thread : int; buf : Event.t Vec.t; mutable enabled : bool }

let create ?(thread = 0) () = { thread; buf = Vec.create (); enabled = true }
let thread t = t.thread
let enabled t = t.enabled
let set_enabled t b = t.enabled <- b

let emit t kind loc = if t.enabled then Vec.push t.buf { Event.kind; loc; thread = t.thread }

let length t = Vec.length t.buf
let take t = Vec.take_all t.buf
let sink t = { Sink.emit = (fun kind loc -> emit t kind loc) }
