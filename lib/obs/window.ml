let reset () = ()
